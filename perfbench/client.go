package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/server"
)

// instance is one in-process kplexd behind a loopback HTTP server.
type instance struct {
	srv     *server.Server
	ts      *httptest.Server
	cl      *http.Client
	conns   atomic.Int64 // client connections the server accepted
	tr      *tracer      // nil: untraced
	jobsDir string
}

// newInstance starts kplexd with its deployed defaults; only the
// directories are set.
func newInstance(dataDir, catalogDir, jobsDir string) (*instance, error) {
	srv, err := server.New(server.Config{DataDir: dataDir, CatalogDir: catalogDir, JobsDir: jobsDir})
	if err != nil {
		return nil, err
	}
	in := &instance{srv: srv}
	in.ts = httptest.NewUnstartedServer(srv.Handler())
	in.ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			in.conns.Add(1)
		}
	}
	in.ts.Start()
	n := runtime.NumCPU()
	in.cl = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
	return in, nil
}

func (in *instance) close() {
	in.cl.CloseIdleConnections()
	in.ts.Close()
	in.srv.Close()
}

// loadGraphs makes every graph resident through POST /graphs and returns
// the summed round trips.
func (in *instance) loadGraphs(names []string) (time.Duration, error) {
	var total time.Duration
	for _, name := range names {
		body, _ := json.Marshal(map[string]string{"name": name})
		t0 := time.Now()
		sp := in.tr.begin(nil, "server.load")
		code, raw, err := in.do("POST", "/graphs", body, nil)
		sp.end()
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if code != http.StatusOK {
			return 0, fmt.Errorf("POST /graphs %s: HTTP %d: %s", name, code, raw)
		}
	}
	return total, nil
}

// do sends one request and reads the whole body into buf (or a fresh
// buffer when buf is nil).
func (in *instance) do(method, path string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	req, err := http.NewRequest(method, in.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := in.cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// scrapeInto reads /metrics and adds every sample to sum, keyed by
// sample name (labels included); traced runs difference such sums.
func (in *instance) scrapeInto(sum map[string]float64) error {
	m, err := in.scrape()
	for name, v := range m {
		sum[name] += v
	}
	return err
}

// scrape reads /metrics into a map of sample name (labels included) to
// value.
func (in *instance) scrape() (map[string]float64, error) {
	code, raw, err := in.do("GET", "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// outcome is one request as the client saw it.
type outcome struct {
	Kind   string // query, stream, batch, job
	Start  time.Time
	RT     time.Duration // send to last byte (job: submit to result read)
	Cached bool
	Failed bool // transport error, 429 or 5xx
	Wrong  bool // answered, but not the reference answer
	Err    string
	// check verifies the answer. The request functions leave it to their
	// caller, so an open loop can check a segment's answers after the
	// segment; with a shared read buffer, verify before the next request.
	check func(*outcome)
}

// verify runs the pending answer check, if any.
func (o *outcome) verify() {
	if c := o.check; c != nil {
		o.check = nil
		c(o)
	}
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed = true
	o.Err = fmt.Sprintf(format, args...)
}

func (o *outcome) wrong(format string, args ...any) {
	o.Wrong = true
	o.Err = fmt.Sprintf(format, args...)
}

// checker verifies answers against the references.
type checker struct {
	refs    map[string]*refAnswer
	graphs  func(name string) (*graph.Graph, error) // served graph, for maximality checks
	rng     *rand.Rand
	mu      sync.Mutex       // guards rng and samples
	samples map[cell][][]int // streamed plexes awaiting checkSamples
}

func (c *checker) ref(cl cell) *refAnswer {
	r := c.refs[cl.key()]
	if r == nil {
		panic("no reference for " + cl.key())
	}
	return r
}

type queryAnswer struct {
	Count     int64         `json:"count"`
	MaxSize   int           `json:"maxSize"`
	Cached    bool          `json:"cached"`
	TopK      [][]int       `json:"topk"`
	Histogram map[int]int64 `json:"histogram"`
}

// checkQuery compares one cacheable answer with the reference. Every mode
// reports the full count, so a count mismatch is caught in every mode.
func (c *checker) checkQuery(o *outcome, cl cell, mode string, topN int, a *queryAnswer) {
	r := c.ref(cl)
	switch {
	case a.Count != r.Count:
		o.wrong("%s %s: count %d, reference %d", cl.key(), mode, a.Count, r.Count)
	case r.Count > 0 && a.MaxSize != r.MaxSize:
		o.wrong("%s %s: maxSize %d, reference %d", cl.key(), mode, a.MaxSize, r.MaxSize)
	case mode == "histogram" && !histEqual(a.Histogram, r.Hist):
		o.wrong("%s histogram differs from reference", cl.key())
	case mode == "topk" && !topkEqual(a.TopK, r.TopK, topN):
		o.wrong("%s topk %d differs from reference", cl.key(), topN)
	}
}

func histEqual(a, b map[int]int64) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func topkEqual(got, ref [][]int, n int) bool {
	if n < len(ref) {
		ref = ref[:n]
	}
	if len(got) != len(ref) {
		return false
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], ref[i]) {
			return false
		}
	}
	return true
}

func (in *instance) query(chk *checker, cl cell, mode string, topN int, buf *bytes.Buffer) outcome {
	body, _ := json.Marshal(map[string]any{"graph": cl.Graph, "k": cl.K, "q": cl.Q, "mode": mode, "topn": topN})
	o := outcome{Kind: "query", Start: time.Now()}
	sp := in.tr.begin(nil, "server.query")
	code, raw, err := in.do("POST", "/query", body, buf)
	o.RT = time.Since(o.Start)
	sp.end()
	if !okStatus(&o, code, raw, err) {
		return o
	}
	o.check = func(o *outcome) {
		var a queryAnswer
		if err := json.Unmarshal(raw, &a); err != nil {
			o.wrong("decoding /query answer: %v", err)
			return
		}
		o.Cached = a.Cached
		chk.checkQuery(o, cl, mode, topN, &a)
	}
	return o
}

// okStatus scores transport errors, 429s and 5xx as failures and any
// other non-200 as a wrong answer.
func okStatus(o *outcome, code int, raw []byte, err error) bool {
	switch {
	case err != nil:
		o.fail("%v", err)
	case code == http.StatusTooManyRequests || code >= 500:
		o.fail("HTTP %d: %.200s", code, raw)
	case code != http.StatusOK && code != http.StatusAccepted:
		o.wrong("HTTP %d: %.200s", code, raw)
	default:
		return true
	}
	return false
}

// stream reads a full NDJSON /stream response and checks it (see
// checkStream).
func (in *instance) stream(chk *checker, cl cell, buf *bytes.Buffer) outcome {
	path := "/stream?" + url.Values{"graph": {cl.Graph}, "k": {strconv.Itoa(cl.K)}, "q": {strconv.Itoa(cl.Q)}}.Encode()
	o := outcome{Kind: "stream", Start: time.Now()}
	sp := in.tr.begin(nil, "server.stream")
	code, raw, err := in.do("GET", path, nil, buf)
	o.RT = time.Since(o.Start)
	sp.end()
	if !okStatus(&o, code, raw, err) {
		return o
	}
	o.check = func(o *outcome) { chk.checkStream(o, cl, raw) }
	return o
}

// streamSample is how many emitted plexes per stream enter the maximality
// sample; samplePerCell caps the sample of one cell over a run.
const (
	streamSample  = 4
	samplePerCell = 16
)

// checkStream checks the line count and the plex-set digest at once and
// sets aside a seeded sample of the plexes for checkSamples, which runs
// after the measured phases: a maximality check costs far more than
// receiving the plex.
func (c *checker) checkStream(o *outcome, cl cell, raw []byte) {
	r := c.ref(cl)
	agg := jobs.NewAggregate(0)
	var sample [][]int
	c.mu.Lock()
	rng := rand.New(rand.NewSource(c.rng.Int63()))
	c.mu.Unlock()
	var summary struct {
		Done  bool  `json:"done"`
		Count int64 `json:"count"`
	}
	sawSummary := false
	var plex []int
	for len(raw) > 0 {
		i := bytes.IndexByte(raw, '\n')
		if i < 0 {
			i = len(raw)
		}
		line := raw[:i]
		raw = raw[min(i+1, len(raw)):]
		if len(line) == 0 {
			continue
		}
		if line[0] != '[' {
			if err := json.Unmarshal(line, &summary); err != nil {
				o.wrong("%s stream: bad summary line: %v", cl.key(), err)
				return
			}
			sawSummary = true
			continue
		}
		var err error
		if plex, err = parseIntArray(line, plex[:0]); err != nil {
			o.wrong("%s stream: %v", cl.key(), err)
			return
		}
		agg.AddPlex(plex)
		// Reservoir sample of the emitted plexes.
		if n := agg.Count; n <= streamSample {
			sample = append(sample, append([]int(nil), plex...))
		} else if j := rng.Int63n(n); j < streamSample {
			sample[j] = append(sample[j][:0], plex...)
		}
	}
	switch {
	case !sawSummary || !summary.Done:
		o.wrong("%s stream: no done summary", cl.key())
	case agg.Count != r.Count || summary.Count != r.Count:
		o.wrong("%s stream: %d lines, summary %d, reference %d", cl.key(), agg.Count, summary.Count, r.Count)
	case agg.PlexDigest() != r.Digest:
		o.wrong("%s stream: plex-set digest differs from reference", cl.key())
	default:
		c.mu.Lock()
		if c.samples == nil {
			c.samples = map[cell][][]int{}
		}
		room := samplePerCell - len(c.samples[cl])
		c.samples[cl] = append(c.samples[cl], sample[:min(room, len(sample))]...)
		c.mu.Unlock()
	}
}

// checkSamples checks that every sampled streamed plex is a maximal
// k-plex of at least q vertices of the served graph.
func (c *checker) checkSamples() []string {
	var bad []string
	for cl, ps := range c.samples {
		g, err := c.graphs(cl.Graph)
		if err != nil {
			return append(bad, fmt.Sprintf("loading %s for the maximality check: %v", cl.Graph, err))
		}
		for _, p := range ps {
			if len(p) < cl.Q || !graph.IsMaximalKPlex(g, p, cl.K) {
				bad = append(bad, fmt.Sprintf("%s stream: %v is not a maximal %d-plex of >= %d vertices", cl.key(), p, cl.K, cl.Q))
			}
		}
	}
	return bad
}

// parseIntArray parses a JSON array of non-negative integers such as
// "[1,5,9]" without reflection.
func parseIntArray(line []byte, dst []int) ([]int, error) {
	if len(line) < 2 || line[0] != '[' || line[len(line)-1] != ']' {
		return nil, fmt.Errorf("bad plex line %.60q", line)
	}
	v, digits := 0, 0
	for _, b := range line[1:] {
		switch {
		case b >= '0' && b <= '9':
			v = v*10 + int(b-'0')
			digits++
		case b == ',' || b == ']':
			if digits == 0 {
				if b == ']' && len(dst) == 0 {
					return dst, nil
				}
				return nil, fmt.Errorf("bad plex line %.60q", line)
			}
			dst = append(dst, v)
			v, digits = 0, 0
		default:
			return nil, fmt.Errorf("bad plex line %.60q", line)
		}
	}
	return dst, nil
}

// batch sends one /batch q-sweep and checks every item line.
func (in *instance) batch(chk *checker, b batchSweep, buf *bytes.Buffer) outcome {
	items := make([]map[string]any, len(b.Qs))
	for i, q := range b.Qs {
		items[i] = map[string]any{"k": b.K, "q": q, "mode": b.Mode}
	}
	body, _ := json.Marshal(map[string]any{"graph": b.Graph, "items": items})
	o := outcome{Kind: "batch", Start: time.Now()}
	sp := in.tr.begin(nil, "server.batch")
	code, raw, err := in.do("POST", "/batch", body, buf)
	o.RT = time.Since(o.Start)
	sp.end()
	if !okStatus(&o, code, raw, err) {
		return o
	}
	o.check = func(o *outcome) { chk.checkBatch(o, b, raw) }
	return o
}

// checkBatch checks every item line of a /batch answer.
func (c *checker) checkBatch(o *outcome, b batchSweep, raw []byte) {
	seen := 0
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var it struct {
			Item *int   `json:"item"`
			Done bool   `json:"done"`
			Err  string `json:"error"`
			queryAnswer
		}
		if err := json.Unmarshal(line, &it); err != nil {
			o.wrong("decoding /batch line: %v", err)
			return
		}
		if it.Item == nil {
			if !it.Done || it.Err != "" {
				o.fail("/batch %s: summary done=%v error=%q", b.Graph, it.Done, it.Err)
				return
			}
			continue
		}
		if *it.Item < 0 || *it.Item >= len(b.Qs) {
			o.wrong("/batch %s: item %d out of range", b.Graph, *it.Item)
			return
		}
		seen++
		c.checkQuery(o, cell{b.Graph, b.K, b.Qs[*it.Item]}, b.Mode, 0, &it.queryAnswer)
		if o.Wrong {
			return
		}
	}
	if seen != len(b.Qs) {
		o.wrong("/batch %s: %d item lines for %d items", b.Graph, seen, len(b.Qs))
	}
}

// job submits a durable job, follows its event feed to the terminal
// state and reads the result; the round trip spans all three.
func (in *instance) job(chk *checker, cl cell, buf *bytes.Buffer) outcome {
	o := outcome{Kind: "job", Start: time.Now()}
	root := in.tr.begin(nil, "jobs.job")
	defer root.end()
	var raw []byte
	if id := in.postJob(&o, cl, buf, root); id != "" {
		raw = in.awaitJob(&o, id, buf, root)
	}
	o.RT = time.Since(o.Start)
	if raw != nil {
		o.check = func(o *outcome) { chk.checkJob(o, cl, raw) }
	}
	return o
}

// submitJob only submits a durable job; its round trip ends with the
// accepted manifest. Its check follows the job to its end and checks the
// result, so in an open loop the job runs beside the later requests.
func (in *instance) submitJob(chk *checker, cl cell, buf *bytes.Buffer) outcome {
	o := outcome{Kind: "submit", Start: time.Now()}
	id := in.postJob(&o, cl, buf, nil)
	o.RT = time.Since(o.Start)
	if id != "" {
		o.check = func(o *outcome) {
			if raw := in.awaitJob(o, id, nil, nil); raw != nil {
				chk.checkJob(o, cl, raw)
			}
		}
	}
	return o
}

// postJob submits cl as a durable job and returns its id, or "" with o
// failed.
func (in *instance) postJob(o *outcome, cl cell, buf *bytes.Buffer, parent *spanCtx) string {
	body, _ := json.Marshal(map[string]any{"graph": cl.Graph, "k": cl.K, "q": cl.Q})
	sp := in.tr.begin(parent, "jobs.submit")
	code, raw, err := in.do("POST", "/jobs", body, buf)
	sp.end()
	if !okStatus(o, code, raw, err) {
		return ""
	}
	var man struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &man); err != nil || man.ID == "" {
		o.fail("decoding job manifest: %v", err)
		return ""
	}
	return man.ID
}

// awaitJob reads job id's event feed to its end, then its result; it
// returns the result, or nil with o failed.
func (in *instance) awaitJob(o *outcome, id string, buf *bytes.Buffer, parent *spanCtx) []byte {
	sp := in.tr.begin(parent, "jobs.wait")
	code, raw, err := in.do("GET", "/jobs/"+id+"/events", nil, buf)
	sp.end()
	if !okStatus(o, code, raw, err) {
		return nil
	}
	sp = in.tr.begin(parent, "jobs.result")
	for attempt := 0; ; attempt++ {
		code, raw, err = in.do("GET", "/jobs/"+id+"/result", nil, buf)
		if code != http.StatusConflict || attempt == 1000 {
			break
		}
		time.Sleep(time.Millisecond) // terminal state seen before the result landed
	}
	sp.end()
	if !okStatus(o, code, raw, err) {
		return nil
	}
	return raw
}

// checkJob checks a job result: count, max size, top-10, histogram and
// plex-set digest.
func (c *checker) checkJob(o *outcome, cl cell, raw []byte) {
	var res struct {
		queryAnswer
		PlexDigest string `json:"plexDigest"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		o.wrong("decoding job result: %v", err)
		return
	}
	c.checkQuery(o, cl, "topk", 10, &res.queryAnswer)
	if !o.Wrong && !histEqual(res.Histogram, c.ref(cl).Hist) {
		o.wrong("%s job: histogram differs from reference", cl.key())
	}
	if !o.Wrong && res.PlexDigest != c.ref(cl).Digest {
		o.wrong("%s job: plex-set digest differs from reference", cl.key())
	}
}
