package main

import (
	"context"
	"sync"

	"github.com/hobbitscan/hobbit/internal/api"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// worldEntry is one pooled world. ready closes when the build finishes
// (successfully or not); refs counts sessions currently probing it, so
// eviction never tears a world out from under a run.
type worldEntry struct {
	key     api.WorldSpecV1
	ready   chan struct{}
	world   *netsim.World
	err     error
	refs    int
	lastUse int64
}

// worldPool caches built worlds up to a bound, evicting the
// least-recently-used idle entry. World construction is expensive (it is
// the reason the daemon exists), so concurrent requests for the same key
// share one build: the first acquirer constructs while later ones wait on
// ready.
//
// The pool keys on the whole world spec. Fault plan and epoch are part of
// the key, not mutable state: netsim.World.SetFaults and SetEpoch are not
// safe to flip under live probing, so the pool builds a separate world
// per adversity view and every session sharing a key probes an
// identical, frozen surface — the property the determinism contract (and
// the result cache) rests on.
type worldPool struct {
	max int
	reg *telemetry.Registry

	mu      sync.Mutex
	seq     int64
	entries map[api.WorldSpecV1]*worldEntry
}

func newWorldPool(max int, reg *telemetry.Registry) *worldPool {
	if max < 1 {
		max = 1
	}
	return &worldPool{max: max, reg: reg, entries: make(map[api.WorldSpecV1]*worldEntry)}
}

// acquire returns the world for key, building it on first use, and a
// release func the caller must invoke when its run no longer touches the
// world. Waiting on another goroutine's in-flight build honors ctx.
func (p *worldPool) acquire(ctx context.Context, key api.WorldSpecV1) (*netsim.World, func(), error) {
	p.mu.Lock()
	e, ok := p.entries[key]
	if ok {
		e.refs++
		p.seq++
		e.lastUse = p.seq
		p.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			p.release(e)
			return nil, nil, ctx.Err()
		}
		if e.err != nil {
			p.release(e)
			return nil, nil, e.err
		}
		p.reg.Counter("serve.worlds_reused").Inc()
		return e.world, func() { p.release(e) }, nil
	}
	e = &worldEntry{key: key, ready: make(chan struct{}), refs: 1}
	p.seq++
	e.lastUse = p.seq
	p.entries[key] = e
	p.evictLocked()
	p.mu.Unlock()

	e.world, e.err = key.World()
	close(e.ready)
	if e.err != nil {
		// A failed build must not poison the key: drop the entry so a
		// later request can retry.
		p.mu.Lock()
		delete(p.entries, key)
		p.mu.Unlock()
		return nil, nil, e.err
	}
	p.reg.Counter("serve.worlds_built").Inc()
	return e.world, func() { p.release(e) }, nil
}

func (p *worldPool) release(e *worldEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e.refs--
	p.evictLocked()
}

// evictLocked drops least-recently-used idle entries until the pool fits
// its bound. Entries still referenced (or still building) are never
// evicted, so the bound is soft under extreme key diversity: correctness
// over strictness.
func (p *worldPool) evictLocked() {
	for len(p.entries) > p.max {
		var victim *worldEntry
		for _, e := range p.entries {
			if e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(p.entries, victim.key)
		p.reg.Counter("serve.worlds_evicted").Inc()
	}
}
