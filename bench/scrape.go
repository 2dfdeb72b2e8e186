package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one reading of a daemon's /metrics page: series text, exactly as
// exposed (name plus label set), to value. Keeping the label set as text is
// enough here because the benchmark only ever looks up series it can spell.
type scrape map[string]float64

// parseMetrics reads the Prometheus text format. Comment lines are skipped;
// a sample line is "<series> <value>" with an optional trailing timestamp.
func parseMetrics(text []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// A label value may contain spaces, so the series ends at the
		// closing brace when there is one.
		cut := strings.IndexByte(line, ' ')
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			cut = i + 1
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// since returns, per series, how far it moved between two scrapes of the
// same process; a series born in between counts from zero.
func (after scrape) since(before scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sumWhere adds every series of the family whose label text contains each of
// the given fragments, e.g. sumWhere("kgvote_server_requests_total", `route="/ask"`).
func (s scrape) sumWhere(family string, fragments ...string) float64 {
	var sum float64
next:
	for k, v := range s {
		name, labels, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				continue next
			}
		}
		sum += v
	}
	return sum
}

// histMean is a histogram's mean observation, sum over count; 0 when it saw
// nothing.
func (s scrape) histMean(family string, fragments ...string) float64 {
	n := s.sumWhere(family+"_count", fragments...)
	if n == 0 {
		return 0
	}
	return s.sumWhere(family+"_sum", fragments...) / n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics scrapes the daemon over an existing connection.
func (c *conn) metrics() (scrape, error) {
	status, body, err := c.do("GET", "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseMetrics(body)
}

// statsBody is the part of GET /v1/stats the benchmark reads.
type statsBody struct {
	Serving struct {
		Entities      int `json:"entities"`
		Edges         int `json:"edges"`
		VotesAccepted int `json:"votes_accepted"`
	} `json:"serving"`
	Admission struct {
		Admitted int64 `json:"admitted"`
		Shed     int64 `json:"shed"`
	} `json:"admission"`
	Durability *struct {
		ReplayedRecords int `json:"replayed_records"`
	} `json:"durability"`
}

func (c *conn) stats() (statsBody, error) {
	var s statsBody
	err := c.callJSON("GET", "/v1/stats", nil, &s)
	return s, err
}
