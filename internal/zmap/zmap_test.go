package zmap

import (
	"context"
	"reflect"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
	"github.com/hobbitscan/hobbit/internal/telemetry"
)

// bitmapScanner is a hand-built scanner for unit tests.
type bitmapScanner map[iputil.Addr]bool

func (s bitmapScanner) ScanBlock(b iputil.Block24) (bm [4]uint64) {
	for i := 0; i < 256; i++ {
		if s[b.Addr(i)] {
			bm[i>>6] |= 1 << uint(i&63)
		}
	}
	return bm
}

func b24(s string) iputil.Block24 { return iputil.MustParseBlock24(s) }

// census runs the production census over the blocks with default options.
func census(s Scanner, blocks []iputil.Block24) *Dataset {
	return Collect(Stream(context.Background(), s, blocks, StreamOptions{}))
}

func TestScanRecordsActives(t *testing.T) {
	blk := b24("1.2.3.0")
	s := bitmapScanner{
		blk.Addr(0):   true,
		blk.Addr(63):  true,
		blk.Addr(64):  true,
		blk.Addr(255): true,
	}
	d := census(s, []iputil.Block24{blk, b24("9.9.9.0")})
	if d.ActiveCount(blk) != 4 {
		t.Fatalf("ActiveCount = %d", d.ActiveCount(blk))
	}
	if !d.Active(blk.Addr(63)) || d.Active(blk.Addr(1)) {
		t.Error("Active bitmap wrong")
	}
	if d.ActiveCount(b24("9.9.9.0")) != 0 {
		t.Error("empty block should have no actives")
	}
	got := d.Actives(blk)
	want := []iputil.Addr{blk.Addr(0), blk.Addr(63), blk.Addr(64), blk.Addr(255)}
	if len(got) != len(want) {
		t.Fatalf("Actives = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Actives[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if d.TotalActive() != 4 {
		t.Errorf("TotalActive = %d", d.TotalActive())
	}
}

func TestActivesBy26(t *testing.T) {
	blk := b24("1.2.3.0")
	s := bitmapScanner{
		blk.Addr(5):   true, // /26 #0
		blk.Addr(70):  true, // /26 #1
		blk.Addr(130): true, // /26 #2
		blk.Addr(200): true, // /26 #3
		blk.Addr(201): true, // /26 #3
	}
	d := census(s, []iputil.Block24{blk})
	by := d.ActivesBy26(blk)
	if len(by[0]) != 1 || len(by[1]) != 1 || len(by[2]) != 1 || len(by[3]) != 2 {
		t.Errorf("ActivesBy26 = %v", by)
	}
}

// activesBy26Split splits Actives by /26 address by address: the oracle
// for ActivesBy26's cut at the bitmap words.
func activesBy26Split(d *Dataset, b iputil.Block24) [4][]iputil.Addr {
	var out [4][]iputil.Addr
	for _, a := range d.Actives(b) {
		q := a.Block26()
		out[q] = append(out[q], a)
	}
	return out
}

// TestActivesBy26MatchesSplit checks ActivesBy26 against the split of
// Actives on every block of a world, eligible or not, and on a block the
// census never recorded. The four /26s share one backing array, so it
// also checks that appending to one leaves the next unchanged.
func TestActivesBy26MatchesSplit(t *testing.T) {
	w := netsim.MustNew(netsim.DefaultConfig(400))
	blocks := append(w.Blocks(), b24("9.9.9.0"))
	d := census(w, blocks)
	split := 0
	for _, b := range blocks {
		got, want := d.ActivesBy26(b), activesBy26Split(d, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: ActivesBy26 = %v, want %v", b, got, want)
		}
		for q := 0; q < 3; q++ {
			if len(got[q]) == 0 || len(got[q+1]) == 0 {
				continue
			}
			next := got[q+1][0]
			_ = append(got[q], 0)
			if got[q+1][0] != next {
				t.Fatalf("%v: appending to /26 %d overwrote /26 %d", b, q, q+1)
			}
			split++
		}
	}
	if split == 0 {
		t.Fatal("no block has two adjacent non-empty /26s")
	}
}

func TestEligible(t *testing.T) {
	blk := b24("1.2.3.0")
	// Three /26s covered, four actives: not eligible (missing /26).
	s := bitmapScanner{
		blk.Addr(5): true, blk.Addr(70): true,
		blk.Addr(130): true, blk.Addr(131): true,
	}
	d := census(s, []iputil.Block24{blk})
	if d.Eligible(blk, 4) {
		t.Error("block missing a /26 should not be eligible")
	}
	// Cover the fourth /26.
	s[blk.Addr(200)] = true
	d = census(s, []iputil.Block24{blk})
	if !d.Eligible(blk, 4) {
		t.Error("block with all /26s and 5 actives should be eligible")
	}
	if d.Eligible(blk, 6) {
		t.Error("minActive=6 should reject 5 actives")
	}
	if d.Eligible(b24("8.8.8.0"), 1) {
		t.Error("unscanned block should not be eligible")
	}
}

func TestRecord(t *testing.T) {
	d := NewDataset()
	a := iputil.MustParseAddr("4.4.4.77")
	d.Record(a)
	if !d.Active(a) || d.ActiveCount(a.Block24()) != 1 {
		t.Error("Record/Active broken")
	}
}

func TestScanWorld(t *testing.T) {
	cfg := netsim.DefaultConfig(400)
	cfg.BigBlockScale = 0.02
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := census(w, w.Blocks())
	eligible := d.EligibleBlocks(w.Blocks(), 4)
	if len(eligible) == 0 {
		t.Fatal("no eligible blocks in world")
	}
	// High-activity blocks dominate; eligibility should be substantial
	// but not total (low-activity blocks fail the /26 criterion).
	frac := float64(len(eligible)) / float64(len(w.Blocks()))
	if frac < 0.4 || frac > 0.95 {
		t.Errorf("eligible fraction = %v", frac)
	}
	// Dataset agrees with the world's scan-time truth.
	for _, b := range eligible[:10] {
		for _, a := range d.Actives(b) {
			if !w.ScanPing(a) {
				t.Fatalf("dataset active %v not scan-active in world", a)
			}
		}
	}
}

// TestScanWorkersIdentical pins the parallel census determinism contract:
// the dataset and every census counter must be byte-identical for any
// worker count, and equal to the serial one-shot sweep oracle.
func TestScanWorkersIdentical(t *testing.T) {
	cfg := netsim.DefaultConfig(300)
	cfg.BigBlockScale = 0.02
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	regWant := telemetry.NewRegistry()
	want := ScanWith(w, w.Blocks(), ScanOptions{Workers: 1, Telemetry: regWant})
	for _, workers := range []int{1, 8, 0} {
		reg := telemetry.NewRegistry()
		got := Collect(Stream(context.Background(), w, w.Blocks(), StreamOptions{Workers: workers, Telemetry: reg}))
		if !got.Equal(want) || !want.Equal(got) {
			t.Fatalf("Workers=%d dataset differs from the serial sweep", workers)
		}
		sw, sg := regWant.Snapshot(), reg.Snapshot()
		for _, name := range []string{"census.scan_pings", "census.responders", "census.active_blocks"} {
			if sw.Counters[name] != sg.Counters[name] {
				t.Errorf("%s: Workers=%d %d != serial %d", name, workers, sg.Counters[name], sw.Counters[name])
			}
		}
	}
}

func TestDatasetEqual(t *testing.T) {
	a, b := NewDataset(), NewDataset()
	if !a.Equal(b) {
		t.Error("empty datasets must be equal")
	}
	a.Record(iputil.MustParseAddr("1.2.3.4"))
	if a.Equal(b) || b.Equal(a) {
		t.Error("datasets with different blocks must differ")
	}
	b.Record(iputil.MustParseAddr("1.2.3.5"))
	if a.Equal(b) {
		t.Error("datasets with different bitmaps must differ")
	}
	b2 := NewDataset()
	b2.Record(iputil.MustParseAddr("1.2.3.4"))
	if !a.Equal(b2) {
		t.Error("identical recordings must be equal")
	}
}
