package oracle

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
)

// byteChooser replays fuzzer input as generator choices, one byte each;
// once the input is used up every choice is 0, which closes elements and
// so ends the document.
type byteChooser []byte

func (b *byteChooser) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// FuzzStringValueContains turns the first half of its input into a small
// SpanDoc document and the second half into a SpanQuery over it (a text
// predicate on a multi-text target, with a literal that mostly crosses text
// boundaries) and requires the engine to select exactly the DOM's nodes,
// to count them, to stream them through Iter and to report them through
// Exists, under the cost model's choice, both forced strategies and the
// naive string values. The seeds run
// in every plain `go test`; CI fuzzes further with
// `go test -run '^$' -fuzz '^FuzzStringValueContains$' -fuzztime 15s ./internal/oracle`.
func FuzzStringValueContains(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abc"))
	for seed := uint64(1); seed <= 32; seed++ {
		r := gen.NewRNG(seed)
		in := make([]byte, 160)
		for i := range in {
			in[i] = byte(r.Intn(256))
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		r, qr := byteChooser(in[:len(in)/2]), byteChooser(in[len(in)/2:])
		data := SpanDoc(&r, 24)
		tree, err := dom.Parse(data)
		if err != nil {
			t.Fatalf("generated document does not parse: %v\n%s", err, data)
		}
		eng, err := core.BuildContext(context.Background(), data, core.Config{SampleRate: 4})
		if err != nil {
			t.Fatal(err)
		}
		q := SpanQuery(&qr, ExtractVocab(tree, 50))
		want, err := tree.Eval(q)
		if err != nil {
			t.Fatalf("%q: dom: %v", q, err)
		}
		for _, opts := range spanArms {
			e := eng.WithQueryOptions(opts)
			nodes, err := e.Nodes(context.Background(), q)
			if err != nil {
				t.Fatalf("%q %+v: %v", q, opts, err)
			}
			n, err := e.Count(context.Background(), q)
			if err != nil {
				t.Fatalf("%q %+v: %v", q, opts, err)
			}
			it, err := e.Iter(context.Background(), q)
			if err != nil {
				t.Fatalf("%q %+v: %v", q, opts, err)
			}
			var streamed []int
			for x, ok := it.Next(); ok; x, ok = it.Next() {
				streamed = append(streamed, x)
			}
			if err := it.Err(); err != nil {
				t.Fatalf("%q %+v: Iter: %v", q, opts, err)
			}
			ex, err := e.Exists(context.Background(), q)
			if err != nil {
				t.Fatalf("%q %+v: %v", q, opts, err)
			}
			got := toPreorders(eng, nodes)
			wantOrders := make([]int, len(want))
			for i, x := range want {
				wantOrders[i] = x.Order
			}
			if !sameInts(got, wantOrders) || n != int64(len(want)) {
				t.Fatalf("%q %+v: nodes %v, count %d; DOM %v\n%s", q, opts, got, n, wantOrders, data)
			}
			if got := toPreorders(eng, streamed); !sameInts(got, wantOrders) || ex != (len(want) > 0) {
				t.Fatalf("%q %+v: Iter %v, Exists %v; DOM %v\n%s", q, opts, got, ex, wantOrders, data)
			}
		}
	})
}
