package workload

import (
	"testing"
)

func TestEmployeesDeterministic(t *testing.T) {
	cfg := EmployeeConfig{N: 50, L: 0, U: 1 << 20, PhotoSize: 64, HiddenPct: 20, Seed: 1}
	a, err := Employees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Employees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 50 || b.Len() != 50 {
		t.Fatalf("lengths: %d, %d", a.Len(), b.Len())
	}
	for i := range a.Tuples {
		if a.Tuples[i].Key != b.Tuples[i].Key {
			t.Fatal("same seed must give same keys")
		}
	}
	c, err := Employees(EmployeeConfig{N: 50, L: 0, U: 1 << 20, PhotoSize: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Tuples {
		if a.Tuples[i].Key != c.Tuples[i].Key {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical keys")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmployeesHiddenFraction(t *testing.T) {
	rel, err := Employees(EmployeeConfig{N: 500, L: 0, U: 1 << 20, HiddenPct: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	visIdx := rel.Schema.ColIndex("vis_clerk")
	hidden := 0
	for _, tp := range rel.Tuples {
		if !tp.Attrs[visIdx].Bool {
			hidden++
		}
	}
	if hidden < 100 || hidden > 200 {
		t.Fatalf("hidden = %d of 500, expected ~150", hidden)
	}
}

func TestUniformRecordSize(t *testing.T) {
	rel, err := Uniform(UniformConfig{N: 20, L: 0, U: 1 << 20, PayloadSize: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range rel.Tuples {
		// 8 key bytes + tag/len framing + payload.
		if tp.Size() < 512 || tp.Size() > 512+32 {
			t.Fatalf("record size %d, want ~512", tp.Size())
		}
	}
}
