package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/aggregate"
)

// fuzzPool is the deterministic aggregate universe the fuzzer draws
// observations from: overlapping families (dense components), plus
// singletons with private last hops. Observing past the end cycles, so
// long inputs re-observe the same block pointers as fresh vertices —
// legal at the streamer layer, which never keys on aggregate identity.
func fuzzPool() []*aggregate.Block {
	var pool []*aggregate.Block
	pool = append(pool, starvedFamily(5, 5, 0x10000)...)
	pool = append(pool, starvedFamily(4, 4, 0x20000)...)
	pool = append(pool, starvedFamily(6, 6, 0x30000)...)
	for i := 0; i < 6; i++ {
		pool = append(pool, agg(900+i, 0x500000+uint32(i)*4, 1, 0xfee10000+uint32(i)))
	}
	return pool
}

// FuzzStreamerRetract interleaves Observe and Retract under fuzzer
// control and holds the retraction oracle: no interleaving may panic,
// and Finish must converge to exactly the Result a from-scratch run
// over the surviving blocks produces. Each input byte is one op:
// low bytes observe the next pool aggregate as new, mid bytes retract
// a fuzzer-chosen vertex (tombstone and out-of-range retracts are
// legal no-ops), high bytes re-observe an existing aggregate, which
// must change nothing.
func FuzzStreamerRetract(f *testing.F) {
	f.Add([]byte("ab"))
	f.Add([]byte("abcdefgh\x85\x90abcd\xf0\xf1\x92ab\x80"))
	f.Add(bytes.Repeat([]byte("aaaa\x9b\xe2"), 80)) // long: hundreds of observes and retracts
	f.Add([]byte("\x81\xff"))                       // retract/re-observe before any observe
	f.Fuzz(func(t *testing.T, data []byte) {
		pool := fuzzPool()
		s := (&Pipeline{Seed: 5, Workers: 2}).Stream()
		var observed []*aggregate.Block
		var alive []bool
		next := 0
		for _, op := range data {
			switch {
			case op < 0x70:
				b := pool[next%len(pool)]
				next++
				s.Observe(b, true)
				observed = append(observed, b)
				alive = append(alive, true)
			case op < 0xc0:
				// Mod over len+1 so the one-past-the-end no-op retract is
				// reachable too.
				if len(observed) > 0 {
					v := int(op) % (len(observed) + 1)
					s.Retract(v)
					if v < len(observed) {
						alive[v] = false
					}
				} else {
					s.Retract(int(op))
				}
			default:
				if len(observed) > 0 {
					s.Observe(observed[int(op)%len(observed)], false)
				}
			}
		}
		got := s.Finish()

		var survivors []*aggregate.Block
		for i, b := range observed {
			if alive[i] {
				survivors = append(survivors, b)
			}
		}
		want := (&Pipeline{Seed: 5, Workers: 1}).Run(survivors)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interleaving of %d ops (%d survivors of %d) diverged from fresh run",
				len(data), len(survivors), len(observed))
		}
	})
}
