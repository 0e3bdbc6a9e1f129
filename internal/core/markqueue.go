package core

import "sync"

// markPool is the shared gray-object pool for parallel marking. Workers
// keep thread-local stacks and spill/steal chunks here; mutators flush
// their thread-local mark buffers here (paper §2, footnote 2). The pool
// also provides the quiescence signal used to attempt mark termination at
// STW2.
type markPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks [][]uint64
	// active counts workers currently holding local work; waiting counts
	// workers parked in get.
	active int
	// terminated releases all waiting workers at mark end.
	terminated bool
}

func newMarkPool() *markPool {
	p := &markPool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// put contributes a chunk of gray object addresses and wakes a worker.
func (p *markPool) put(chunk []uint64) {
	if len(chunk) == 0 {
		return
	}
	p.mu.Lock()
	p.chunks = append(p.chunks, chunk)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// get blocks until a chunk is available or marking terminates (nil).
// The caller transitions from active to waiting while blocked.
func (p *markPool) get() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active--
	p.cond.Broadcast() // collector may be watching for quiescence
	for len(p.chunks) == 0 && !p.terminated {
		p.cond.Wait()
	}
	if p.terminated && len(p.chunks) == 0 {
		return nil
	}
	chunk := p.chunks[len(p.chunks)-1]
	p.chunks = p.chunks[:len(p.chunks)-1]
	p.active++
	return chunk
}

// setActive registers n initially active workers.
func (p *markPool) setActive(n int) {
	p.mu.Lock()
	p.active = n
	p.terminated = false
	p.chunks = nil
	p.mu.Unlock()
}

// quiescent reports whether no worker holds work and the pool is empty,
// i.e. the only possible remaining gray objects sit in unflushed mutator
// buffers. Used by the collector to decide when to attempt STW2.
func (p *markPool) quiescent() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active == 0 && len(p.chunks) == 0
}

// waitQuiescent blocks until quiescent.
func (p *markPool) waitQuiescent() {
	p.mu.Lock()
	for !(p.active == 0 && len(p.chunks) == 0) {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// terminate releases all waiting workers; get returns nil from now on.
func (p *markPool) terminate() {
	p.mu.Lock()
	p.terminated = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
