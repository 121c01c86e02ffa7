package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForRowsCoversAllRows(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		c := &Ctx{Workers: workers, Grain: 64}
		const n, rowCost = 100, 37
		var hits [n]int32
		c.ForRows(n, rowCost, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: row %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForRowsChargesRowCost(t *testing.T) {
	tally := &Tally{}
	c := &Ctx{Tally: tally}
	c.ForRows(10, 50, func(lo, hi int) {})
	cost := tally.Snapshot()
	if cost.Work != 500 {
		t.Fatalf("work=%d want 500", cost.Work)
	}
	if cost.Span < 50 {
		t.Fatalf("span=%d, want ≥ rowCost", cost.Span)
	}
}

func TestForRowsForksBelowGrainRows(t *testing.T) {
	// 8 rows of cost 1024 is 8192 work: with the default grain 2048 the
	// adaptive cutoff must still split across workers even though the row
	// count alone (8) is far below the grain.
	c := &Ctx{Workers: 4}
	var blocks int64
	c.ForRows(8, 1024, func(lo, hi int) {
		atomic.AddInt64(&blocks, 1)
	})
	if blocks < 2 {
		t.Fatalf("blocks=%d, expected the row loop to fork", blocks)
	}
}

func TestForRowsEdgeCases(t *testing.T) {
	c := &Ctx{}
	ran := false
	c.ForRows(0, 10, func(lo, hi int) { ran = true })
	if ran {
		t.Fatal("body ran for n=0")
	}
	c.ForRows(1, 0, func(lo, hi int) {
		if lo != 0 || hi != 1 {
			t.Fatalf("lo=%d hi=%d", lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("body did not run for n=1")
	}
}

func TestPerRowForksBelowGrainRowsAndKeepsCharges(t *testing.T) {
	// The ForRows cutoff for rows of cost 1024 applied to For and ForBlock:
	// 8 rows fork although 8 is far below the default grain, and each loop
	// still charges n work and log n span, as on the original Ctx.
	tally := &Tally{}
	c := &Ctx{Workers: 4, Tally: tally}
	rows := c.PerRow(1024)
	var blocks int64
	rows.ForBlock(8, func(lo, hi int) { atomic.AddInt64(&blocks, 1) })
	if blocks < 2 {
		t.Fatalf("blocks=%d, expected the row loop to fork", blocks)
	}
	var hits [8]int32
	rows.For(8, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("row %d visited %d times", i, h)
		}
	}
	want := &Tally{}
	(&Ctx{Tally: want}).ForBlock(8, func(lo, hi int) {})
	(&Ctx{Tally: want}).For(8, func(i int) {})
	if got, w := tally.Snapshot(), want.Snapshot(); got != w {
		t.Fatalf("charged %+v, want %+v", got, w)
	}
	if rows.Workers != 4 || rows.Tally != tally {
		t.Fatalf("PerRow dropped the configuration: %+v", rows)
	}
	var nilCtx *Ctx
	if g := nilCtx.PerRow(0).Grain; g != DefaultGrain {
		t.Fatalf("nil PerRow(0) grain %d, want %d", g, DefaultGrain)
	}
}
