package main

import "fmt"

// reference is the single-threaded run the daemons must agree with. Its
// sketch is an empty daemon's own /v1/snapshot decoded with UnmarshalBinary,
// so its hashers are whatever the program's are.
//
// The writers cycle one column, so the acked prefix is q whole passes plus
// the first r updates of the next. By linearity (integer deltas, so every sum
// is exact in float64) its sketch is q merges of the one-pass sketch plus r
// updates fed in order, which keeps the check cheap however many updates a
// window acked.
type reference struct {
	in    *input
	empty counters // the daemon's sketch before any update
	pass  counters // one full pass of the column
}

func newReference(emptySnapshot []byte, in *input) (*reference, error) {
	t, err := decodeTracker(emptySnapshot)
	if err != nil {
		return nil, fmt.Errorf("decoding the empty daemon's snapshot: %w", err)
	}
	empty := t.counters()
	if m := empty.mass(); m != 0 {
		return nil, fmt.Errorf("the fresh daemon's snapshot already holds mass %v", m)
	}
	pass := empty.empty()
	pass.update(in.items, in.deltas)
	return &reference{in: in, empty: empty, pass: pass}, nil
}

// at returns the sketch after the first n updates of the cycled column.
func (r *reference) at(n int) counters {
	cm := r.empty.empty()
	for q := n / columnLen; q > 0; q-- {
		if err := cm.merge(r.pass); err != nil {
			panic(err) // same shape by construction
		}
	}
	rem := n % columnLen
	cm.update(r.in.items[:rem], r.in.deltas[:rem])
	return cm
}

// answers returns the estimates of cm for every query column.
func (r *reference) answers(cm counters) [][]float64 {
	out := make([][]float64, len(r.in.qcols))
	for c, keys := range r.in.qcols {
		out[c] = make([]float64, len(keys))
		cm.estimate(keys, out[c])
	}
	return out
}
