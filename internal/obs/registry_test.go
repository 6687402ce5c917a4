package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestPrometheusExposition is the golden test for the text format:
// counters, gauges, labeled series, func-backed series and the
// histogram triplet, with families sorted by name and label values
// escaped.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("d_requests_total", "Requests.", "route", "/v1/x", "code", "2xx").Add(3)
	r.Counter("d_requests_total", "Requests.", "route", "/v1/x", "code", "5xx").Add(1)
	r.Gauge("d_in_flight", "In flight.").Set(2)
	r.GaugeFunc("d_queue_depth", "Depth.", func() float64 { return 7 }, "shard", "0")
	r.CounterFunc("d_sampled_total", "Sampled.", func() float64 { return 12.5 })
	h := r.Histogram("d_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)
	r.Counter("d_escaped_total", "Esc.", "path", `a"b\c`+"\n").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP d_escaped_total Esc.
# TYPE d_escaped_total counter
d_escaped_total{path="a\"b\\c\n"} 1
# HELP d_in_flight In flight.
# TYPE d_in_flight gauge
d_in_flight 2
# HELP d_latency_seconds Latency.
# TYPE d_latency_seconds histogram
d_latency_seconds_bucket{le="0.01"} 1
d_latency_seconds_bucket{le="0.1"} 3
d_latency_seconds_bucket{le="1"} 3
d_latency_seconds_bucket{le="+Inf"} 4
d_latency_seconds_sum 5.105
d_latency_seconds_count 4
# HELP d_queue_depth Depth.
# TYPE d_queue_depth gauge
d_queue_depth{shard="0"} 7
# HELP d_requests_total Requests.
# TYPE d_requests_total counter
d_requests_total{route="/v1/x",code="2xx"} 3
d_requests_total{route="/v1/x",code="5xx"} 1
# HELP d_sampled_total Sampled.
# TYPE d_sampled_total counter
d_sampled_total 12.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryIdentity: the same (name, labels) resolves to the same
// metric object, and different labels to different ones.
func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "k", "1")
	b := r.Counter("x_total", "", "k", "1")
	c := r.Counter("x_total", "", "k", "2")
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	if a == c {
		t.Error("different labels returned the same counter")
	}
	h1 := r.Histogram("h_seconds", "", []float64{1, 2})
	h2 := r.Histogram("h_seconds", "", nil)
	if h1 != h2 {
		t.Error("re-registration returned a distinct histogram")
	}
}

func TestRegistryTypeClash(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering one name as counter and gauge should panic")
		}
	}()
	r := NewRegistry()
	r.Counter("clash", "")
	r.Gauge("clash", "")
}

// TestScrapeCountMatchesInfBucket scrapes a histogram while other
// goroutines observe into it: on every scrape, _count must equal the
// le="+Inf" bucket, as the exposition format requires. A _count read
// separately from the buckets drifts from it whenever an Observe lands
// between the two reads.
func TestScrapeCountMatchesInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{0.001, 0.01, 0.1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i%200) / 1000)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	const scrapes = 200
	bad := 0
	for i := 0; i < scrapes; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `h_seconds_bucket{le="+Inf"} `); ok {
				inf = v
			} else if v, ok := strings.CutPrefix(line, "h_seconds_count "); ok {
				count = v
			}
		}
		if inf == "" || count == "" {
			t.Fatalf("scrape lacks the +Inf bucket or _count:\n%s", b.String())
		}
		if inf != count {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d scrapes wrote a _count that differs from the le=\"+Inf\" bucket", bad, scrapes)
	}
}
