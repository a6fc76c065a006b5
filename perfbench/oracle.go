package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/query"
)

// Every workload serves the GrQc stand-in generated with this seed;
// the benchmark's own --seed drives only the request mix.
const (
	dataset     = "GrQc"
	datasetSeed = 42
)

// oracle answers every request in-process before anything is timed:
// a query.Engine over the same generated graph the server generates,
// so by the repository's byte-identity guarantee (fresh, decoded and
// relayed snapshots answer identically) the timed loop only compares
// bytes.
type oracle struct {
	g   *graph.Graph
	eng *query.Engine
}

func newOracle(scale float64, opts query.Options) (*oracle, error) {
	g, err := datasets.Generate(dataset, scale, datasetSeed)
	if err != nil {
		return nil, err
	}
	eng := query.NewEngine(opts)
	eng.RegisterDataset(dataset, g)
	return &oracle{g: g, eng: eng}, nil
}

func (o *oracle) snapshot(key query.Key) (*query.Snapshot, error) {
	s, err := o.eng.Snapshot(key)
	if err != nil {
		return nil, fmt.Errorf("oracle analysis of %v: %w", key, err)
	}
	return s, nil
}

// requestBody is the batch request for key with every key field
// pinned, so the server's defaults cannot reinterpret it.
func requestBody(key query.Key, ops []query.Op) []byte {
	color, bins := key.Color, key.Bins
	b, err := json.Marshal(query.Request{Dataset: key.Dataset, Measure: key.Measure, Color: &color, Bins: &bins, Ops: ops})
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return b
}

// encodeResponse produces the exact bytes query.Handler writes for an
// answer: the same struct through the same encoder.
func encodeResponse(info query.Info, results []query.OpResult) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(query.Response{Snapshot: info, Results: results}); err != nil {
		panic(err) // finite floats only: the fields are validated at analysis
	}
	return buf.Bytes()
}

// batch is one pooled query request with its oracle answer.
type batch struct {
	key  query.Key
	ops  []query.Op
	body []byte
	want []byte
}

func (o *oracle) batch(snap *query.Snapshot, ops []query.Op) batch {
	return batch{
		key:  snap.Key,
		ops:  ops,
		body: requestBody(snap.Key, ops),
		want: encodeResponse(snap.Info(), o.eng.Resolve(snap, ops)),
	}
}

// deck deals values in [0,1) in blocks of n: each block is the grid
// (i+u)/n, i = 0..n-1, under one random shift u, in a random order. Each
// deal is uniform, as an independent draw would be, but a block covers
// [0,1) evenly. The shift comes from the run's seed and the order from
// a generator every seed shares, so two seeds deal each slot a value
// from the same cell of the grid: a pool that draws whole blocks then
// costs alike whatever the seed, down to which slots go together in a
// batch — and the run-to-run spread does not follow the seed.
type deck struct {
	shift, order *rand.Rand
	n            int
	hand         []float64
}

func newDeck(shift, order *rand.Rand, n int) *deck {
	return &deck{shift: shift, order: order, n: max(n, 1)}
}

func (d *deck) next() float64 {
	if len(d.hand) == 0 {
		u := d.shift.Float64()
		for _, i := range d.order.Perm(d.n) {
			d.hand = append(d.hand, (float64(i)+u)/float64(d.n))
		}
	}
	v := d.hand[0]
	d.hand = d.hand[1:]
	return v
}

// shared returns the generator every seed shares for one purpose
// (stream): it orders decks and shuffles pools.
func shared(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(0, stream)) }

// pick deals an index in [0, n).
func (d *deck) pick(n int) int { return int(d.next() * float64(n)) }

// served is an oracle snapshot with what the request pools draw from
// it: the α range a viewer's slider spans (lowest, median and highest
// super-node scalar over the items) and item orders to stratify draws
// by.
type served struct {
	snap        *query.Snapshot
	lo, mid, hi float64
	// byScalar orders the items by scalar; byMCC by the size of their
	// MCC, which is what an mcc op costs; upperByMCC is byMCC cut to the
	// items at or above the median scalar.
	byScalar, byMCC, upperByMCC []int32
}

func newServed(snap *query.Snapshot) *served {
	tree := snap.Terrain.Tree
	scalar := func(i int32) float64 { return tree.Scalar[tree.NodeOf[i]] }
	sizes := tree.SubtreeSize() // MCC(i) is the subtree of i's super node
	mccSize := func(i int32) int32 { return sizes[tree.NodeOf[i]] }
	n := tree.NumItems()
	s := &served{snap: snap, byScalar: make([]int32, n)}
	for i := range s.byScalar {
		s.byScalar[i] = int32(i)
	}
	slices.SortStableFunc(s.byScalar, func(a, b int32) int { return cmp.Compare(scalar(a), scalar(b)) })
	s.lo, s.mid, s.hi = scalar(s.byScalar[0]), scalar(s.byScalar[n/2]), scalar(s.byScalar[n-1])
	bySize := func(a, b int32) int { return cmp.Compare(mccSize(a), mccSize(b)) }
	s.byMCC = slices.Clone(s.byScalar)
	slices.SortStableFunc(s.byMCC, bySize)
	s.upperByMCC = slices.Clone(s.byScalar[n/2:])
	slices.SortStableFunc(s.upperByMCC, bySize)
	return s
}

// dealAlpha deals an α in [lo, hi].
func dealAlpha(d *deck, lo, hi float64) float64 { return lo + d.next()*(hi-lo) }

// dealItem deals one of items, uniformly, stratified by their order:
// a pool's ops then cost alike whatever the seed.
func dealItem(d *deck, items []int32) int32 { return items[d.pick(len(items))] }

// cheapDecks deals one key's draws of the cheap mix, n batches a block.
type cheapDecks struct{ mccs, items, alphas *deck }

func newCheapDecks(shift, order *rand.Rand, n int) *cheapDecks {
	return &cheapDecks{mccs: newDeck(shift, order, n), items: newDeck(shift, order, n), alphas: newDeck(shift, order, n)}
}

// cheapOps is the cold-disk/forwarded mix: the spectrum, and an MCC
// lookup and a component lookup at or above the median α — answers that
// stay small (the MCC of a low item is most of the graph), so the
// storage or forwarding hop dominates each request.
func (s *served) cheapOps(d *cheapDecks) []query.Op {
	return []query.Op{
		{Op: query.OpMCC, Item: dealItem(d.mccs, s.upperByMCC)},
		{Op: query.OpSpectrum},
		{Op: query.OpComponentOf, Item: dealItem(d.items, s.byScalar), Alpha: dealAlpha(d.alphas, s.mid, s.hi)},
	}
}

// timeIt runs f and returns how long it took.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
