package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1 << 10, 10}, {1<<10 + 1, 11},
		{1 << 26, 26}, {1<<26 + 1, 27}, {math.MaxInt64, 27},
	}
	for _, tc := range cases {
		if tc.v < 0 {
			// Observe clamps negatives; bucketOf itself sees >= 0.
			continue
		}
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Every value must land in a bucket whose bound contains it.
	for v := int64(1); v < 1<<20; v = v*3 + 1 {
		b := bucketOf(v)
		if float64(v) > BucketBound(b) {
			t.Fatalf("value %d above its bucket bound %g", v, BucketBound(b))
		}
		if b > 0 && float64(v) <= BucketBound(b-1) {
			t.Fatalf("value %d fits the previous bucket %g", v, BucketBound(b-1))
		}
	}
}

func TestHistogramCountsAndSum(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 5000, -7} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1+2+3+100+5000 { // -7 clamps to 0
		t.Errorf("sum = %d", h.Sum())
	}
	s := h.Snapshot()
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket counts sum to %d, count says %d", total, s.Count)
	}
}

// TestHistogramConcurrentWriters hammers one histogram from many goroutines
// (run under -race in CI) and checks nothing is lost.
func TestHistogramConcurrentWriters(t *testing.T) {
	var h Histogram
	const writers, perWriter = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(int64(w*31+i) % 4096)
			}
		}(w)
	}
	// Concurrent readers must see valid snapshots while writes race.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			s := h.Snapshot()
			var total int64
			for _, c := range s.Counts {
				total += c
			}
			if total < 0 || s.Count < 0 {
				t.Error("negative snapshot")
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := h.Count(); got != writers*perWriter {
		t.Errorf("count = %d, want %d", got, writers*perWriter)
	}
	s := h.Snapshot()
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Errorf("buckets sum to %d, count %d", total, s.Count)
	}
}

func TestWriteHistogramExposition(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(100)
	var b strings.Builder
	WriteHistogram(&b, "x_micros", `endpoint="p"`, h.Snapshot())
	out := b.String()
	for _, want := range []string{
		`x_micros_bucket{endpoint="p",le="4"} 1`,
		`x_micros_bucket{endpoint="p",le="128"} 2`,
		`x_micros_bucket{endpoint="p",le="+Inf"} 2`,
		`x_micros_sum{endpoint="p"} 103`,
		`x_micros_count{endpoint="p"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Unlabeled form.
	b.Reset()
	WriteHistogram(&b, "y", "", h.Snapshot())
	if !strings.Contains(b.String(), `y_bucket{le="+Inf"} 2`) || !strings.Contains(b.String(), "y_count 2") {
		t.Errorf("unlabeled exposition wrong:\n%s", b.String())
	}
}
