package workloads

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
	"hcsgc/internal/overload"
)

// KVServer models a memcached-style serving system: server threads
// (RunConfig.Mutators, default kvThreads) each own one shard of an
// in-heap key/value cache
// (internal/kvstore) and execute a pregenerated open-loop request
// schedule (internal/loadgen). Request latency is measured on the
// virtual-cycle timeline from the scheduled arrival time to completion,
// so GC pauses and allocation stalls land on whatever requests were in
// flight — and, because arrivals are open-loop, on the requests that
// queued up behind them (no coordinated omission).
//
// Sharding is slot mod the thread count (generation-invariant, see
// loadgen), so
// every key's operations execute on a single thread: the run's checksum
// is deterministic for a seed even though threads interleave freely with
// the collector.
//
// With RunConfig.Overload set, the serving loop runs protected: an
// admission controller sheds requests under pressure, each request's
// deadline is armed as a per-request allocation budget, shed/expired
// requests retry with jittered backoff, and heap exhaustion degrades to
// per-request failures. Unprotected runs skip all of that except the OOM
// degradation — a full heap fails individual requests, never the run.
const (
	kvThreads      = 4
	kvDefaultScale = 1.0
	kvBaseKeys     = 10_000
	// kvBaseRequests makes each traffic phase long relative to one GC
	// cycle (~10 pause-widths): with short phases the tail percentiles
	// degenerate into a coin flip over whether a pause landed inside
	// the phase at all.
	kvBaseRequests = 300_000
	// kvWorkPerReq is the request-handling compute (parse, respond)
	// beyond the heap traffic itself, in cycles.
	kvWorkPerReq = 120
	// kvHeapBytes sizes the heap so the warm cache is roughly half of it:
	// SET/fill churn crosses the 70% GC trigger every few million virtual
	// cycles (~10 cycles per run at default scale), while leaving enough
	// slack above the trigger that allocation stalls stay an occasional
	// tail event instead of a permanent overload.
	kvHeapBytes = 18 << 20
	// kvPollEvery is the admission controller's poll cadence in requests
	// handled per thread.
	kvPollEvery = 32
)

// kvPriority maps an op to its admission priority: scans are bulk work
// (shed first); point ops shed last. Read-through fills are gated
// separately at PriorityBulk inside the GET path.
func kvPriority(op loadgen.Op) overload.Priority {
	if op == loadgen.OpScan {
		return overload.PriorityBulk
	}
	return overload.PriorityPoint
}

// KVServer is the serving-latency benchmark behind `hcsgc-bench -report kv`
// and (with RunConfig.Overload armed) `hcsgc-bench -report overload`.
func KVServer() Workload {
	return Workload{
		Name: "KV server under open-loop load (SLO latency)",
		Run: guard(func(cfg RunConfig) Result {
			scale := cfg.scale(kvDefaultScale)
			threads := cfg.Mutators
			if threads <= 0 {
				threads = kvThreads
			}
			keys := int(float64(kvBaseKeys) * scale)
			if keys < 64*threads {
				keys = 64 * threads
			}
			reqs := int(float64(kvBaseRequests) * scale)
			if reqs < 1_000 {
				reqs = 1_000
			}
			// The protected and unprotected sides of an overload A/B must
			// face identical traffic: the mean gap and deadline knobs are
			// RNG-free, so the arrivals, keys, and op mix depend only on
			// (seed, keys, reqs).
			gap := 600.0
			if cfg.LoadFactor > 0 {
				gap /= cfg.LoadFactor
			}
			pol := overload.Policy{}.WithDefaults()
			if cfg.Overload != nil {
				p := *cfg.Overload
				if p.Seed == 0 {
					p.Seed = cfg.Seed
				}
				pol = p.WithDefaults()
			}
			var deadlineCycles uint64
			if cfg.Overload != nil {
				deadlineCycles = pol.DeadlineCycles
			}
			sched := loadgen.Generate(loadgen.Config{
				Seed:           cfg.Seed,
				Keys:           keys,
				Requests:       reqs,
				MeanGapCycles:  gap,
				DeadlineCycles: deadlineCycles,
			})

			// Per-run metrics; merged into the caller's accumulators (the
			// bench A/B aggregates across repeats) at the end. mx holds
			// only successful requests; ost holds the outcome accounting.
			mx := kvstore.NewMetrics()
			ost := overload.NewStats()
			if cfg.Telemetry != nil {
				mx.BindTelemetry(cfg.Telemetry.Metrics())
				// The /kv endpoint serves this run's live report (latest
				// run wins, like the other per-runtime endpoints).
				cfg.Telemetry.Publish("kv", func() any { return mx.Report(nil) })
			}
			if cfg.Tail != nil && cfg.Telemetry != nil {
				cfg.Tail.BindTelemetry(cfg.Telemetry.Metrics())
				tail := cfg.Tail
				cfg.Telemetry.Publish("tailattr", func() any { return tail.Report() })
			}

			e := newEnv(cfg, kvHeapBytes, 2)
			defer e.cleanup()
			types := kvstore.RegisterTypes(e.rt.Types)

			// The overload controller is per-run (its state machine tracks
			// this runtime's signal plane) but records into the shared
			// accumulator via ost.
			var ctrl *overload.Controller
			if cfg.Overload != nil {
				p := *cfg.Overload
				if p.Seed == 0 {
					p.Seed = cfg.Seed
				}
				col := e.rt.Collector
				ctrl = overload.NewController(p, e.rt.Signals, overload.Hooks{
					HeapUsedPct: e.rt.Heap.UsedPercent,
					Stalls:      col.StallCount,
					SetHeadroom: col.SetEmergencyHeadroom,
					EmergencyGC: col.RequestEmergencyGC,
				}, cfg.FaultInjector, ost)
			}
			if cfg.Telemetry != nil {
				reg := cfg.Telemetry.Metrics()
				if ctrl != nil {
					c := ctrl
					ctrl.BindTelemetry(reg)
					cfg.Telemetry.Publish("overload", func() any { return c.Report() })
				} else {
					o, slo := ost, pol.GoodputSLOCycles
					ost.BindTelemetry(reg)
					cfg.Telemetry.Publish("overload", func() any { return o.Report(slo) })
				}
			}

			lg := sched.Config
			var (
				wg         sync.WaitGroup
				loaded     sync.WaitGroup
				serve      = make(chan struct{})
				checks     = make([]uint64, threads)
				spans      = make([]uint64, threads)
				serveAlloc atomic.Uint64
			)
			loaded.Add(threads)
			for t := 0; t < threads; t++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					// Each server thread owns its mutator for its whole
					// lifetime: created here (so it polls safepoints from
					// birth) and detached on exit.
					m := e.rt.NewMutator(kvstore.RootSlots)
					defer m.Close()
					m.SetName(fmt.Sprintf("kv-server-%d", tid))
					// Per-thread tail classifier: nil when attribution is
					// off, making every Observe a one-branch no-op. The
					// classifier links exemplars against the runtime's
					// signal plane (also nil-safe).
					col := e.rt.Collector
					cl := cfg.Tail.Classifier(e.rt.Signals)
					// A heap too exhausted to hold even the bucket array
					// leaves the shard dead: the thread stays up and fails
					// its requests without heap work (a goroutine panic
					// here would kill the whole process — guard() only
					// covers the main goroutine).
					st, stErr := kvstore.TryNew(m, types, 2*keys/threads)
					if stErr != nil && !errors.Is(stErr, hcsgc.ErrOutOfMemory) {
						panic(stErr)
					}
					// Preload this thread's shard at generation 0
					// (Key == slot): the cache starts warm, as a serving
					// system does after ramp-up. GC may run mid-preload;
					// every Set polls safepoints at its allocation sites.
					// If the heap can't hold the full warm set, the shard
					// serves with a partial cache instead of dying — read
					// traffic degrades to misses, not to a dead run.
					if st != nil {
						for s := tid; s < keys; s += threads {
							vw := lg.ValueWordsMin + s%(lg.ValueWordsMax-lg.ValueWordsMin+1)
							if _, err := st.TrySet(uint64(s), vw); err != nil {
								if errors.Is(err, hcsgc.ErrOutOfMemory) {
									break
								}
								panic(err)
							}
						}
					}
					loaded.Done()
					// Wait for the measurement boundary as blocked (the
					// collector must be free to pause the world while
					// this thread idles between phases).
					m.Blocked(func() { <-serve })
					// Arrivals are relative to the serving start on this
					// thread's virtual clock (preload already advanced it).
					base := m.VirtualCycles()
					allocBase := m.AllocatedBytes()
					var check uint64
					// Per-op decayed maximum of clean (stall- and
					// pause-free) service cycles, feeding the
					// SLO-staleness shed below. A worst-case estimate,
					// not a mean: admission must guarantee the slowest
					// clean instance of the op still fits the remaining
					// SLO budget, or near-boundary requests violate by a
					// hair and the violation is attributable to nothing.
					var svcWorst [loadgen.NumOps]uint64
					handled := 0
					for i := range sched.Requests {
						r := &sched.Requests[i]
						if int(r.Key%uint64(keys))%threads != tid {
							continue
						}
						if r.Seq%64 == 0 {
							m.Safepoint()
						}
						if ctrl != nil && handled%kvPollEvery == 0 {
							ctrl.Poll()
						}
						handled++
						at := base + r.At
						// Open-loop pacing: idle (but let virtual time
						// pass) until the scheduled arrival; never wait
						// for the server to catch up.
						if now := m.VirtualCycles(); now < at {
							m.Work(at - now)
						}
						var deadlineAbs uint64
						if r.Deadline > 0 {
							deadlineAbs = base + r.Deadline
							// Deadline-aware shedding at dequeue: a request
							// already past its deadline when the server
							// reaches it (queued behind a stall convoy) is
							// dropped for the cost of one clock read — the
							// client gave up long ago, and serving it only
							// delays every request behind it. This is what
							// bounds the successful-request tail: an
							// admitted request can be at most DeadlineCycles
							// old when service starts.
							if now := m.VirtualCycles(); now >= deadlineAbs {
								ost.RecordDeadlineExceeded()
								ost.RecordFailure()
								// The drop itself proves the queue has not
								// drained: keep the convoy chain alive for
								// the requests behind it.
								cl.NoteDisruption(at, now, col.Cycles(), 0, 0)
								continue
							}
						}
						// SLO-staleness shedding at dequeue: if queueing
						// delay alone has consumed the SLO budget (minus
						// twice this class's learned service time), the
						// request can no longer complete within the SLO —
						// serving it would spend capacity manufacturing
						// badput and push every request behind it further
						// past its own budget. This bounds the
						// pure-overload queueing ramp the GC-signal
						// controller cannot see: admitted load above
						// capacity grows the queue without a single stall
						// or heap flag, and without this check every
						// request in that ramp becomes an SLO violation
						// attributable to nothing but the queue itself.
						if ctrl != nil {
							guard := pol.GoodputSLOCycles / 16
							if now := m.VirtualCycles(); now > at &&
								now-at+svcWorst[r.Op]+guard >= pol.GoodputSLOCycles {
								ost.RecordStaleShed(kvPriority(r.Op))
								ost.RecordFailure()
								// Like the deadline drop: the backlog has
								// not drained, keep the convoy chain alive.
								cl.NoteDisruption(at, now, col.Cycles(), 0, 0)
								continue
							}
						}
						if st == nil {
							// Dead shard (bucket array never fit): fail the
							// request without touching the heap.
							ost.RecordOOMFailure()
							ost.RecordFailure()
							m.Work(kvWorkPerReq)
							continue
						}
						// Snapshot the attribution counters around the
						// execution window (service start to completion,
						// retries included): the deltas say whether this
						// request stalled, sat through a pause, or ran
						// while another thread stalled.
						var tailStall0, tailPause0, tailGStalls0, tailCyc0 uint64
						if cl != nil {
							tailStall0 = m.StallVirtualCycles()
							tailPause0 = col.PauseCycles()
							tailGStalls0 = col.StallCount()
							tailCyc0 = col.Cycles()
						}
						svcStart := m.VirtualCycles()
						svcStall0 := m.StallVirtualCycles()
						svcPause0 := col.PauseCycles()
						var reqErr error
						for attempt := 0; ; attempt++ {
							// Admission first: a shed request performs no
							// heap work after this decision point.
							err := ctrl.Admit(kvPriority(r.Op),
								uint64(r.Seq)<<4|uint64(attempt&15))
							if err == nil {
								if deadlineAbs > 0 {
									m.SetAllocBudget(deadlineAbs, pol.MaxStallsPerRequest)
								}
								var delta uint64
								delta, err = kvExecOp(st, mx, ctrl, r, keys, attempt)
								if deadlineAbs > 0 {
									m.ClearAllocBudget()
								}
								if err == nil {
									check += delta
									break
								}
							}
							shed := false
							switch {
							case errors.Is(err, overload.ErrOverload):
								// Recorded by the controller at the
								// decision point.
								shed = true
							case errors.Is(err, hcsgc.ErrDeadlineExceeded):
								ost.RecordDeadlineExceeded()
							case errors.Is(err, hcsgc.ErrOutOfMemory):
								ost.RecordOOMFailure()
							default:
								panic(err)
							}
							// Client retry with jittered backoff, only for
							// shed requests (an expired deadline will not
							// un-expire). The backoff is client-side wait:
							// it does not occupy the shard's thread (a
							// blocking wait here would convert every
							// client's patience into head-of-line delay
							// for the whole shard). Its server-visible
							// effect is the gate: a client whose backoff
							// would run past the deadline gives up instead
							// of resubmitting.
							retry := shed && attempt < pol.MaxRetries
							if retry {
								backoff := loadgen.RetryBackoff(lg.Seed,
									uint64(r.Seq), attempt+1, pol.RetryBackoffCycles)
								if deadlineAbs > 0 &&
									m.VirtualCycles()+backoff >= deadlineAbs {
									retry = false
								} else {
									ost.RecordRetry()
								}
							}
							if !retry {
								reqErr = err
								break
							}
						}
						m.Work(kvWorkPerReq)
						end := m.VirtualCycles()
						if reqErr == nil {
							lat := end - at
							mx.RecordRequest(r.Phase, r.Op, lat)
							ost.RecordSuccess(lat, lat <= pol.GoodputSLOCycles)
							if ctrl != nil {
								// Update the clean-service worst case:
								// slow decay so a one-off high does not
								// over-shed forever, and only stall- and
								// pause-free requests contribute (a
								// disrupted request's span measures the
								// disruption, not the op).
								w := svcWorst[r.Op] - svcWorst[r.Op]/64
								if svc := end - svcStart; svc > w &&
									m.StallVirtualCycles() == svcStall0 &&
									col.PauseCycles() == svcPause0 {
									w = svc
								}
								svcWorst[r.Op] = w
							}
							if cl != nil {
								cl.Observe(hcsgc.TailObs{
									Seq:          uint64(r.Seq),
									Op:           r.Op.String(),
									Phase:        loadgen.PhaseNames[r.Phase],
									ArrivalV:     at,
									StartV:       svcStart,
									EndV:         end,
									OwnStallV:    m.StallVirtualCycles() - tailStall0,
									PauseV:       col.PauseCycles() - tailPause0,
									GlobalStalls: col.StallCount() - tailGStalls0,
									CycleBefore:  tailCyc0,
									CycleAfter:   col.Cycles(),
								})
							}
						} else {
							ost.RecordFailure()
							// A failed request can still be the convoy's
							// seed (it stalled or sat through a pause) or
							// part of its backlog: either way, tell the
							// classifier so its successors' queueing delay
							// stays attributable.
							if cl != nil {
								cl.NoteDisruption(at, end, col.Cycles(),
									m.StallVirtualCycles()-tailStall0,
									col.PauseCycles()-tailPause0)
							}
						}
						if tid == 0 && r.Seq%2048 == 0 {
							e.sampleHeap()
						}
					}
					checks[tid] = check
					spans[tid] = m.VirtualCycles() - base
					serveAlloc.Add(m.AllocatedBytes() - allocBase)
				}(t)
			}
			// The main mutator waits as blocked: it is attached to the
			// runtime but idle, and an idle unblocked mutator would stall
			// every stop-the-world the server threads trigger.
			e.m.Blocked(func() { loaded.Wait() })
			e.sampleHeap()
			e.markMeasured()
			close(serve)
			e.m.Blocked(func() { wg.Wait() })
			e.sampleHeap()

			var span uint64
			for _, s := range spans {
				if s > span {
					span = s
				}
			}
			ost.AddServeSpan(span)
			ost.AddServeAllocBytes(serveAlloc.Load())

			rep := mx.Report(nil)
			orep := ost.Report(pol.GoodputSLOCycles)
			var check uint64
			for _, c := range checks {
				check += c
			}
			if cfg.KV != nil {
				cfg.KV.Merge(mx)
			}
			if cfg.OverloadStats != nil {
				cfg.OverloadStats.Merge(ost)
			}
			res := e.finish(check)
			res.Ops = uint64(reqs)
			steady := rep.Phases[loadgen.PhaseSteady].Dist
			burst := rep.Phases[loadgen.PhaseBurst].Dist
			hitRate := 0.0
			if rep.Hits+rep.Misses > 0 {
				hitRate = float64(rep.Hits) / float64(rep.Hits+rep.Misses)
			}
			res.Scores = map[string]float64{
				"kv-p99-steady":  steady.P99,
				"kv-p999-steady": steady.P999,
				"kv-p999-burst":  burst.P999,
				"kv-hit-rate":    hitRate,
				"kv-sheds":       float64(orep.ShedPoint + orep.ShedBulk),
				"kv-failures":    float64(orep.Failures),
				"kv-goodput":     float64(orep.Goodput),
			}
			return res
		}),
	}
}

// kvExecOp executes one request attempt against the thread's shard,
// returning the checksum delta. Only SET and read-through fills allocate
// (GET/SCAN/DELETE are allocation-free), so only they can fail — with
// ErrOutOfMemory or, under an armed allocation budget,
// ErrDeadlineExceeded. A failed attempt never mutates the index (see
// kvstore.TrySet), so retries are safe.
func kvExecOp(st *kvstore.Store, mx *kvstore.Metrics, ctrl *overload.Controller,
	r *loadgen.Request, keys int, attempt int) (uint64, error) {
	switch r.Op {
	case loadgen.OpGet:
		sum, hit := st.Get(r.Key)
		if attempt == 0 {
			mx.RecordLookup(hit)
		}
		if !hit {
			// Read-through fill, object-cache style. The fill is bulk
			// work: under brownout the controller sheds it and the GET
			// still serves as a miss — deferrable heap traffic is the
			// first thing to go.
			if ferr := ctrl.Admit(overload.PriorityBulk,
				uint64(r.Seq)<<4|uint64(attempt&15)|1<<63); ferr == nil {
				if _, err := st.TrySet(r.Key, r.ValueWords); err != nil {
					return 0, err
				}
			}
		}
		return sum, nil
	case loadgen.OpSet:
		return st.TrySet(r.Key, r.ValueWords)
	case loadgen.OpDelete:
		var delta uint64
		if st.Delete(r.Key) {
			delta = 1
		}
		if r.SessionRetire {
			mx.RecordSessionRetired()
		}
		return delta, nil
	case loadgen.OpScan:
		sum, _ := st.Scan(int(r.Key%uint64(keys)), r.ScanLen)
		return sum, nil
	}
	return 0, nil
}
