package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"
)

// requestTimeout is the client's patience; a request that outlives it is a
// failed operation.
const requestTimeout = 60 * time.Second

// conn is one TCP connection carrying one request at a time. The benchmark
// promises a fixed number of connections, so it speaks HTTP/1.1 on a socket
// it owns instead of going through http.Transport's pool, whose reader and
// writer goroutines would also add scheduling delay to every latency.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	if c != nil && c.c != nil {
		c.c.Close()
	}
}

// redial replaces the socket after the daemon behind it was restarted.
func (c *conn) redial() error {
	c.close()
	n, err := dial(c.addr)
	if err != nil {
		return err
	}
	c.c, c.br = n.c, n.br
	return nil
}

// do sends one request and reads the whole reply. The returned body is valid
// until the next call. requestID may be empty. After a transport error the
// socket may still hold a half-read or late reply, which the next request
// would take for its own; it is dropped, and the next call dials afresh.
func (c *conn) do(method, path, requestID string, body []byte) (int, []byte, error) {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	b := c.req[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	if requestID != "" {
		b = append(b, "\r\nX-Request-ID: "...)
		b = append(b, requestID...)
	}
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.req = b
	status, err := c.roundTrip(b)
	if err != nil {
		c.close()
		c.c = nil
		return 0, nil, err
	}
	return status, c.body.Bytes(), nil
}

// roundTrip writes one request and reads its reply into c.body.
func (c *conn) roundTrip(req []byte) (int, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// callJSON sends in (already encoded, nil for a GET) and decodes a 200 reply
// into out.
func (c *conn) callJSON(method, path string, in []byte, out any) error {
	status, body, err := c.do(method, path, "", in)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// The structs below name only the wire fields the benchmark reads. They are
// declared here, not imported from the api package, so that the end-to-end
// measurement depends on the daemon's wire format and nothing else.

type askResult struct {
	Doc   int     `json:"doc"`
	Score float64 `json:"score"`
}

type traceStage struct {
	Name   string  `json:"name"`
	Micros float64 `json:"us"`
}

type traceBody struct {
	CacheHit    bool         `json:"cache_hit"`
	Stages      []traceStage `json:"stages"`
	TotalMicros float64      `json:"total_us"`
}

type askResponse struct {
	Query          int32       `json:"query"`
	Epoch          uint64      `json:"epoch"`
	Results        []askResult `json:"results"`
	Partial        bool        `json:"partial"`
	ShardsAnswered int         `json:"shards_answered"`
	ShardsTotal    int         `json:"shards_total"`
	Trace          *traceBody  `json:"trace"`
}

type askBatchResponse struct {
	Results [][]askResult `json:"results"`
	Partial bool          `json:"partial"`
}

type voteRequest struct {
	Query   int32 `json:"query"`
	Ranked  []int `json:"ranked"`
	BestDoc int   `json:"best_doc"`
}

// flushReport is the part of core.Report, as /v1/vote returns it on a
// flushing vote, that the benchmark reads.
type flushReport struct {
	Votes, Discarded, Clusters        int
	Variables, Constraints, Satisfied int
	ChangedEdges, Outer, InnerIters   int
	EnumSeconds, JudgeSeconds         float64
	ClusterSeconds, SolveSeconds      float64
	MergeSeconds                      float64
	EnumCacheHits, EnumCacheMisses    uint64
}

type voteResponse struct {
	Flushed bool         `json:"flushed"`
	Report  *flushReport `json:"report"`
}

// maxResults is the daemons' default answer-list length (-k).
const maxResults = 10

// checkRanking is the per-reply correctness check: at most k results, scores
// finite and non-increasing.
func checkRanking(rs []askResult) error {
	if len(rs) > maxResults {
		return fmt.Errorf("%d results, more than k=%d", len(rs), maxResults)
	}
	for i, r := range rs {
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
			return fmt.Errorf("result %d has score %v", i, r.Score)
		}
		if i > 0 && r.Score > rs[i-1].Score {
			return fmt.Errorf("score rises at result %d: %v after %v", i, r.Score, rs[i-1].Score)
		}
	}
	return nil
}

// sameRanking reports whether two rankings hold the same documents with
// bit-identical scores in the same order.
func sameRanking(a, b []askResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// ask sends one question and checks the reply. trace asks the daemon for its
// inline stage timings.
func (c *conn) ask(q question, trace bool, requestID string) (askResponse, error) {
	path := "/v1/ask"
	if trace {
		path = "/v1/ask?trace=1"
	}
	var out askResponse
	status, body, err := c.do("POST", path, requestID, q.body)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("ask: status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("ask: decoding reply: %w", err)
	}
	if out.Partial {
		return out, fmt.Errorf("ask: partial reply, %d of %d shards", out.ShardsAnswered, out.ShardsTotal)
	}
	return out, checkRanking(out.Results)
}

// askBatch ranks every question in one /v1/askbatch call.
func (c *conn) askBatch(qs []question) (askBatchResponse, error) {
	type entry struct {
		Entities map[string]int `json:"entities"`
	}
	req := struct {
		Questions []entry `json:"questions"`
	}{make([]entry, len(qs))}
	for i, q := range qs {
		req.Questions[i].Entities = q.Entities
	}
	in, err := json.Marshal(req)
	if err != nil {
		return askBatchResponse{}, err
	}
	var out askBatchResponse
	if err := c.callJSON("POST", "/v1/askbatch", in, &out); err != nil {
		return out, err
	}
	if len(out.Results) != len(qs) {
		return out, fmt.Errorf("askbatch: %d rankings for %d questions", len(out.Results), len(qs))
	}
	if out.Partial {
		return out, fmt.Errorf("askbatch: partial reply")
	}
	for _, rs := range out.Results {
		if err := checkRanking(rs); err != nil {
			return out, err
		}
	}
	return out, nil
}

// mrr is the mean reciprocal rank of each question's ground-truth document
// in its ranking; a miss scores 0.
func mrr(qs []question, rankings [][]askResult) float64 {
	var sum float64
	for i, q := range qs {
		for pos, r := range rankings[i] {
			if r.Doc == q.BestDoc {
				sum += 1 / float64(pos+1)
				break
			}
		}
	}
	return sum / float64(len(qs))
}
