// Package relation provides the relational data model the scheme operates
// over: typed schemas, tuples with a uint64 sort key drawn from an open
// domain (L, U), canonical binary encodings for hashing, replica-number
// disambiguation of duplicates, and the two fictitious delimiter records
// of Section 3.1.
//
// The sort attribute K is modelled as a uint64 (the paper's analysis uses
// an integer key domain; strings or composite keys can be mapped into it
// by order-preserving encoding). Non-key attributes are typed Values and
// may include BLOBs — the motivating case for projection-at-the-publisher
// (Section 4.2).
package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Type enumerates attribute types.
type Type int

// Attribute types. TypeBool backs the per-user-group visibility columns of
// Section 4.4 (Case 2).
const (
	TypeInt Type = iota
	TypeFloat
	TypeString
	TypeBytes
	TypeBool
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeBytes:
		return "bytes"
	case TypeBool:
		return "bool"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Value is a dynamically-typed attribute value. Exactly the field selected
// by Type is meaningful.
type Value struct {
	Type  Type
	Int   int64
	Float float64
	Str   string
	Bytes []byte
	Bool  bool
}

// Convenience constructors.
func IntVal(v int64) Value     { return Value{Type: TypeInt, Int: v} }
func FloatVal(v float64) Value { return Value{Type: TypeFloat, Float: v} }
func StringVal(v string) Value { return Value{Type: TypeString, Str: v} }
func BytesVal(v []byte) Value  { return Value{Type: TypeBytes, Bytes: v} }
func BoolVal(v bool) Value     { return Value{Type: TypeBool, Bool: v} }

// Encode returns the canonical binary encoding of v: a type tag followed
// by a fixed or length-prefixed payload. Distinct values always encode
// distinctly, so hashing encodings is injective.
func (v Value) Encode() []byte { return v.AppendEncode(nil) }

// AppendEncode appends the canonical encoding of v to dst, for callers
// that hash encodings out of a reused buffer.
func (v Value) AppendEncode(dst []byte) []byte {
	dst = append(dst, byte(v.Type))
	switch v.Type {
	case TypeInt:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.Int))
	case TypeFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float))
	case TypeString:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.Str)))
		dst = append(dst, v.Str...)
	case TypeBytes:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.Bytes)))
		dst = append(dst, v.Bytes...)
	case TypeBool:
		if v.Bool {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// Equal reports deep value equality.
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type {
		return false
	}
	switch v.Type {
	case TypeInt:
		return v.Int == o.Int
	case TypeFloat:
		return v.Float == o.Float
	case TypeString:
		return v.Str == o.Str
	case TypeBytes:
		return bytes.Equal(v.Bytes, o.Bytes)
	case TypeBool:
		return v.Bool == o.Bool
	}
	return false
}

// Size returns the wire size of the value in bytes; used for the Figure 9
// traffic accounting (Mr, record size).
func (v Value) Size() int { return len(v.Encode()) }

// String implements fmt.Stringer for diagnostics.
func (v Value) String() string {
	switch v.Type {
	case TypeInt:
		return fmt.Sprintf("%d", v.Int)
	case TypeFloat:
		return fmt.Sprintf("%g", v.Float)
	case TypeString:
		return v.Str
	case TypeBytes:
		return fmt.Sprintf("bytes[%d]", len(v.Bytes))
	case TypeBool:
		if v.Bool {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Column describes one non-key attribute.
type Column struct {
	Name string
	Type Type
}

// Schema describes a relation: the name of the sort attribute K and the
// ordered list of non-key attributes A1..AR.
type Schema struct {
	Name    string   // relation name
	KeyName string   // name of the sort attribute K
	Cols    []Column // non-key attributes
}

// ColIndex returns the index of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the schema for duplicate or empty names.
func (s Schema) Validate() error {
	if s.KeyName == "" {
		return errors.New("relation: schema needs a key attribute name")
	}
	seen := map[string]bool{s.KeyName: true}
	for _, c := range s.Cols {
		if c.Name == "" {
			return errors.New("relation: empty column name")
		}
		if seen[c.Name] {
			return fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// Tuple is one record: the sort-key value, a row identifier that
// disambiguates duplicates (the paper's "replica number", Section 3.1),
// and the non-key attribute values aligned with Schema.Cols.
type Tuple struct {
	Key   uint64
	RowID uint64
	Attrs []Value
}

// Clone returns a deep copy.
func (t Tuple) Clone() Tuple {
	attrs := make([]Value, len(t.Attrs))
	copy(attrs, t.Attrs)
	for i := range attrs {
		if attrs[i].Type == TypeBytes && attrs[i].Bytes != nil {
			b := make([]byte, len(attrs[i].Bytes))
			copy(b, attrs[i].Bytes)
			attrs[i].Bytes = b
		}
	}
	return Tuple{Key: t.Key, RowID: t.RowID, Attrs: attrs}
}

// Size returns the encoded record size in bytes (key + attributes): the
// Mr parameter of the cost analysis.
func (t Tuple) Size() int {
	n := 8
	for _, a := range t.Attrs {
		n += a.Size()
	}
	return n
}

// Relation is a set of tuples sorted on Key (ties broken by RowID), with
// an open key domain (L, U): every tuple key lies strictly between L and U
// so the two delimiter keys L and U are unambiguous.
type Relation struct {
	Schema Schema
	L, U   uint64
	Tuples []Tuple
}

// Errors returned by Validate and mutation helpers.
var (
	ErrDomain      = errors.New("relation: tuple key outside open domain (L, U)")
	ErrUnsorted    = errors.New("relation: tuples not sorted by (Key, RowID)")
	ErrArity       = errors.New("relation: tuple arity does not match schema")
	ErrDupRowID    = errors.New("relation: duplicate (Key, RowID)")
	ErrEmptyDomain = errors.New("relation: domain needs U > L+1")
)

// New constructs an empty relation over the open domain (L, U).
func New(schema Schema, l, u uint64) (*Relation, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if u <= l+1 {
		return nil, ErrEmptyDomain
	}
	return &Relation{Schema: schema, L: l, U: u}, nil
}

// Insert adds a tuple, keeping sort order and assigning a RowID that makes
// (Key, RowID) unique. The assigned RowID is returned.
func (r *Relation) Insert(t Tuple) (uint64, error) {
	if t.Key <= r.L || t.Key >= r.U {
		return 0, fmt.Errorf("%w: key %d not in (%d, %d)", ErrDomain, t.Key, r.L, r.U)
	}
	if len(t.Attrs) != len(r.Schema.Cols) {
		return 0, fmt.Errorf("%w: got %d attrs, want %d", ErrArity, len(t.Attrs), len(r.Schema.Cols))
	}
	// Replica number: one more than the largest RowID among equal keys.
	i := sort.Search(len(r.Tuples), func(i int) bool { return r.Tuples[i].Key >= t.Key })
	var replica uint64
	for j := i; j < len(r.Tuples) && r.Tuples[j].Key == t.Key; j++ {
		if r.Tuples[j].RowID >= replica {
			replica = r.Tuples[j].RowID + 1
		}
	}
	t.RowID = replica
	pos := sort.Search(len(r.Tuples), func(i int) bool {
		ti := r.Tuples[i]
		return ti.Key > t.Key || (ti.Key == t.Key && ti.RowID > t.RowID)
	})
	r.Tuples = append(r.Tuples, Tuple{})
	copy(r.Tuples[pos+1:], r.Tuples[pos:])
	r.Tuples[pos] = t
	return t.RowID, nil
}

// Delete removes the tuple with the given key and row id; reports whether
// it existed.
func (r *Relation) Delete(key, rowID uint64) bool {
	for i, t := range r.Tuples {
		if t.Key == key && t.RowID == rowID {
			r.Tuples = append(r.Tuples[:i], r.Tuples[i+1:]...)
			return true
		}
	}
	return false
}

// Validate checks the invariants: sortedness, domain membership, arity,
// and (Key, RowID) uniqueness.
func (r *Relation) Validate() error {
	if err := r.Schema.Validate(); err != nil {
		return err
	}
	for i, t := range r.Tuples {
		if t.Key <= r.L || t.Key >= r.U {
			return fmt.Errorf("%w: tuple %d key %d", ErrDomain, i, t.Key)
		}
		if len(t.Attrs) != len(r.Schema.Cols) {
			return fmt.Errorf("%w: tuple %d", ErrArity, i)
		}
		if i > 0 {
			p := r.Tuples[i-1]
			if p.Key > t.Key || (p.Key == t.Key && p.RowID >= t.RowID) {
				if p.Key == t.Key && p.RowID == t.RowID {
					return fmt.Errorf("%w: tuple %d", ErrDupRowID, i)
				}
				return fmt.Errorf("%w: tuple %d", ErrUnsorted, i)
			}
		}
	}
	return nil
}

// RangeIndices returns the half-open index interval [a, b) of tuples whose
// keys lie in the inclusive key range [lo, hi].
func (r *Relation) RangeIndices(lo, hi uint64) (int, int) {
	a := sort.Search(len(r.Tuples), func(i int) bool { return r.Tuples[i].Key >= lo })
	b := sort.Search(len(r.Tuples), func(i int) bool { return r.Tuples[i].Key > hi })
	return a, b
}

// Len returns the tuple count.
func (r *Relation) Len() int { return len(r.Tuples) }
