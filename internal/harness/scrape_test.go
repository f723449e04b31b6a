package harness

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"emeralds/internal/metrics"
)

func TestScrapeServesOpenMetrics(t *testing.T) {
	s, err := NewScrape("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	set := &metrics.Set{}
	set.Add(metrics.Dispatches, 7)
	_, err = Run(context.Background(), 20, Options{Workers: 4, Label: "smoke", Scrape: s},
		func(ctx context.Context, job Job) (int, error) {
			s.MergeCounters(set)
			return job.Index, nil
		})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", s.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Error("scrape does not terminate with # EOF")
	}
	if !strings.Contains(text, `emeralds_jobs_done{label="smoke"} 20`) {
		t.Errorf("missing job throughput:\n%s", text)
	}
	if !strings.Contains(text, "emeralds_kernel_dispatches_total 140") {
		t.Errorf("missing merged kernel counters (want 20 jobs x 7):\n%s", text)
	}
	// Every sample line belongs to a # TYPE-declared family.
	if err := CheckOpenMetrics(body); err != nil {
		t.Errorf("well-formedness: %v", err)
	}
}

func TestScrapePprofAlive(t *testing.T) {
	s, err := NewScrape("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", s.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof status = %d", resp.StatusCode)
	}
}

func TestScrapeDoesNotChangeResults(t *testing.T) {
	run := func(s *Scrape) []int {
		res, err := Run(context.Background(), 50, Options{Workers: 8, Scrape: s},
			func(ctx context.Context, job Job) (int, error) {
				return job.Index * job.Index % 1000, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	s, err := NewScrape("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	scraped := run(s)
	for i := range plain {
		if plain[i] != scraped[i] {
			t.Fatalf("result %d differs with scrape attached", i)
		}
	}
}
