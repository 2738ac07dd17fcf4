package cache

// NearBudget is the near store's byte budget, for the package's tests.
const NearBudget = nearBudget

// Near returns the client's near store, for the package's tests.
func (c *Client) Near() *Store { return c.near }
