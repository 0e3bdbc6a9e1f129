package main

import (
	"fmt"
	"math/rand"
	"time"

	"hcsgc"
	"hcsgc/internal/bench"
	"hcsgc/internal/simmem"
)

// The probes time one layer's public calls in isolation, each over a
// seeded input, and report the median of probeReps repetitions. They run
// after the workload runs, in the traced process only.
const probeReps = 3

// probeN is a probe's input size: full, shrunk with the workload's scale
// for the smoke test.
func probeN(full int, scale float64) int {
	if scale > 0 && scale < 1 {
		full = int(float64(full) * scale)
	}
	return max(full, 1000)
}

// replayNs times simmem.Core.Load over n addresses on a fresh (empty)
// default hierarchy and returns ns per load.
func replayNs(tr *tracer, name string, addrs []uint64) (float64, error) {
	var per []float64
	for i := 0; i < probeReps; i++ {
		h, err := simmem.NewHierarchy(simmem.DefaultConfig())
		if err != nil {
			return 0, fmt.Errorf("simmem.NewHierarchy: %w", err)
		}
		c := h.NewCore()
		end := tr.begin(name)
		start := time.Now()
		for _, a := range addrs {
			c.Load(a, 8)
		}
		d := time.Since(start)
		end()
		per = append(per, float64(d.Nanoseconds())/float64(len(addrs)))
	}
	return median(per), nil
}

// probeSimmem replays a seeded uniform stream over 1.5× the LLC and a
// sequential stream over the same range.
func probeSimmem(tr *tracer, seed int64, scale float64) (random, seq float64, err error) {
	const base = 1 << 32
	span := uint64(simmem.DefaultConfig().LLC.Size) * 3 / 2
	n := probeN(1<<19, scale)
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = base + uint64(rng.Int63n(int64(span/8)))*8
	}
	if random, err = replayNs(tr, "simmem.Core.Load[random]", addrs); err != nil {
		return 0, 0, err
	}
	for i := range addrs {
		addrs[i] = base + uint64(i)*8%span
	}
	seq, err = replayNs(tr, "simmem.Core.Load[seq]", addrs)
	return random, seq, err
}

// probeRuntime is a config-16 runtime with the cache model off and no GC
// driver, so only the calls under test run.
func probeRuntime(tr *tracer) (*hcsgc.Runtime, error) {
	end := tr.begin("hcsgc.NewRuntime")
	defer end()
	rt, err := hcsgc.NewRuntime(hcsgc.Options{
		HeapMaxBytes:    256 << 20,
		Knobs:           bench.KnobsFor(hcsgcConfig),
		DisableMemModel: true,
	})
	if err != nil {
		return nil, fmt.Errorf("hcsgc.NewRuntime: %w", err)
	}
	return rt, nil
}

// coreProbe holds the core layer's host-time probes.
type coreProbe struct {
	allocNs, barrierNs, gcMsPerLiveMB float64
}

// probeCore times Mutator.Alloc, LoadRef+LoadField pairs over the
// allocated objects in seeded random order, and Runtime.GC over a seeded
// live graph of the same objects.
func probeCore(tr *tracer, seed int64, scale float64) (coreProbe, error) {
	n := probeN(200_000, scale)
	var alloc, barrier, gc []float64
	for i := 0; i < probeReps; i++ {
		rt, err := probeRuntime(tr)
		if err != nil {
			return coreProbe{}, err
		}
		node := rt.Types.Register("probe.node", 3, []int{0, 1})
		m := rt.NewMutator(1)
		arr := m.AllocRefArray(n)
		m.SetRoot(0, arr)

		// No collection runs without the driver, so the refs stay valid
		// until they are stored.
		refs := make([]hcsgc.Ref, n)
		end := tr.begin("core.Mutator.Alloc")
		start := time.Now()
		for j := range refs {
			refs[j] = m.Alloc(node)
		}
		alloc = append(alloc, float64(time.Since(start).Nanoseconds())/float64(n))
		end()
		for j, r := range refs {
			m.StoreRef(m.LoadRoot(0), j, r)
		}

		// Link the objects into a seeded random graph (two edges each).
		rng := rand.New(rand.NewSource(seed))
		for j := 0; j < n; j++ {
			obj := m.LoadRef(m.LoadRoot(0), j)
			m.StoreRef(obj, 0, m.LoadRef(m.LoadRoot(0), rng.Intn(n)))
			m.StoreRef(obj, 1, m.LoadRef(m.LoadRoot(0), rng.Intn(n)))
		}

		idx := make([]int, n)
		for j := range idx {
			idx[j] = rng.Intn(n)
		}
		end = tr.begin("core.Mutator.LoadRef+LoadField")
		start = time.Now()
		var sink uint64
		for _, j := range idx {
			sink += m.LoadField(m.LoadRef(m.LoadRoot(0), j), 2)
		}
		barrier = append(barrier, float64(time.Since(start).Nanoseconds())/float64(n))
		end()
		if sink != 0 {
			return coreProbe{}, fmt.Errorf("probe objects read %d, want zeroed fields", sink)
		}

		end = tr.begin("hcsgc.Runtime.GC")
		start = time.Now()
		m.Blocked(rt.GC)
		d := time.Since(start)
		end()
		st := rt.Collector.Stats()
		live := st.Cycles[len(st.Cycles)-1].MarkedBytes
		gc = append(gc, float64(d.Nanoseconds())/1e6/(float64(live)/(1<<20)))
		m.Close()
		rt.Close()
	}
	return coreProbe{allocNs: median(alloc), barrierNs: median(barrier), gcMsPerLiveMB: median(gc)}, nil
}
