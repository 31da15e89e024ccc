package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parascope/internal/server"
)

// sample is one request as the client saw it.
type sample struct {
	class  string
	verb   string
	dur    time.Duration
	start  time.Time
	ok     bool
	traced bool
	rung   string
	req    string
	// script is the position of the session in the run's stream.
	script int
	// Workload properties observed in the answer.
	cached   bool // open served from the analysis cache, or plan from the plan cache
	declined bool // compile request served by the interpreter
	lines    int  // program size, on opens
	workers  int  // DOALL width, on runs
}

// client is one closed-loop user: it sends its next request when the
// previous answer arrives.
type client struct {
	id     int
	base   string
	http   *http.Client
	seq    int
	tracer *Tracer
	// traced reports whether the session at a stream position is
	// traced; nil traces nothing.
	traced  func(n int) bool
	samples []sample
	// done lists the stream positions of the sessions played to the end.
	done []int
	// mismatches keeps the first few correctness failures for the log.
	mismatches []string
}

// response is a raw answer: status and body.
type response struct {
	status int
	body   []byte
}

// send issues one request; traced asks the timing middleware to
// record it.
func (c *client) send(method, path string, body interface{}, traced bool) (response, time.Duration, time.Time, string, error) {
	var payload io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return response{}, 0, time.Time{}, "", err
		}
		payload = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, payload)
	if err != nil {
		return response{}, 0, time.Time{}, "", err
	}
	c.seq++
	reqID := fmt.Sprintf("c%d-%d", c.id, c.seq)
	if traced {
		reqID = tracedPrefix + reqID
	}
	req.Header.Set("X-Request-ID", reqID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return response{}, time.Since(start), start, reqID, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return response{status: resp.StatusCode, body: data}, time.Since(start), start, reqID, err
}

// request maps an op onto its HTTP method, path and body.
func request(op *Op, id string) (method, path string, body interface{}) {
	sess := "/v1/sessions/" + id
	switch op.Verb {
	case "open":
		return http.MethodPost, "/v1/sessions", op.Open
	case "close":
		return http.MethodDelete, sess, nil
	case "select":
		return http.MethodPost, sess + "/select", op.Select
	case "deps":
		return http.MethodGet, sess + "/deps" + depsQuery(op.Deps), nil
	case "cmd":
		return http.MethodPost, sess + "/cmd", server.CmdRequest{Line: op.Line}
	case "classify":
		return http.MethodPost, sess + "/classify", op.Classify
	case "edit":
		return http.MethodPost, sess + "/edit", op.Edit
	case "transform":
		return http.MethodPost, sess + "/transform", op.Transform
	case "undo":
		return http.MethodPost, sess + "/undo", struct{}{}
	case "plan":
		return http.MethodPost, sess + "/plan", server.PlanRequest{}
	case "apply-plan":
		return http.MethodPost, sess + "/apply-plan", server.ApplyPlanRequest{Index: 1}
	case "run":
		return http.MethodPost, sess + "/run", op.Run
	}
	panic("unknown verb " + op.Verb)
}

func depsQuery(q *server.DepQuery) string {
	v := url.Values{}
	if q.Carried {
		v.Set("carried", "1")
	}
	if q.HideRejected {
		v.Set("hiderejected", "1")
	}
	if q.HidePrivate {
		v.Set("hideprivate", "1")
	}
	if q.Sym != "" {
		v.Set("sym", q.Sym)
	}
	if len(q.Classes) > 0 {
		v.Set("class", strings.Join(q.Classes, ","))
	}
	if len(v) == 0 {
		return ""
	}
	return "?" + v.Encode()
}

// runScript plays the session at stream position n. It stops early
// (closing the session outside the measurement) when stop reports
// true between requests.
func (c *client) runScript(sc *Script, n int, stop func() bool) {
	id := ""
	for i := range sc.Ops {
		op := &sc.Ops[i]
		if op.Verb != "open" && id == "" {
			return // the open failed; nothing to drive
		}
		if op.Verb != "open" && op.Verb != "close" && stop() {
			break
		}
		traced := c.traced != nil && c.traced(n)
		method, path, body := request(op, id)
		resp, dur, start, reqID, err := c.send(method, path, body, traced)
		s := sample{class: op.Class, verb: op.Verb, dur: dur, start: start, traced: traced, rung: op.Want.Rung, req: reqID, script: n}
		if op.Verb == "open" {
			s.lines = sc.Prog.Lines
		}
		if op.Run != nil {
			s.workers = op.Run.Workers
		}
		if err != nil {
			c.fail(sc, op, err.Error())
		} else if problem := check(op, resp, &s, &id); problem != "" {
			c.fail(sc, op, problem)
		} else {
			s.ok = true
		}
		if traced {
			c.tracer.add(Span{Name: "client." + op.Verb, Req: reqID, Start: start.UnixNano(), End: start.Add(dur).UnixNano()})
		}
		c.samples = append(c.samples, s)
		if op.Verb == "close" {
			c.done = append(c.done, n)
			return
		}
	}
	if id != "" {
		// Stopped mid-session: close it outside the measurement.
		_, _, _, _, _ = c.send(http.MethodDelete, "/v1/sessions/"+id, nil, false)
	}
}

func (c *client) fail(sc *Script, op *Op, problem string) {
	if len(c.mismatches) < 5 {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s %s: %s", sc.Name, op.Verb, problem))
	}
}

// check validates one answer against the op's expectation and
// records the workload properties it shows. It returns "" when the
// answer is correct.
func check(op *Op, resp response, s *sample, id *string) string {
	if resp.status < 200 || resp.status > 299 {
		return fmt.Sprintf("status %d: %s", resp.status, strings.TrimSpace(string(resp.body)))
	}
	w := &op.Want
	switch op.Verb {
	case "open":
		var got server.OpenResponse
		if err := json.Unmarshal(resp.body, &got); err != nil {
			return err.Error()
		}
		*id = got.ID
		s.cached = got.Cached
		if !reflect.DeepEqual(got.Units, w.Units) {
			return fmt.Sprintf("units %v, want %v", got.Units, w.Units)
		}
	case "select":
		var got server.SelectResponse
		if err := json.Unmarshal(resp.body, &got); err != nil {
			return err.Error()
		}
		if got != *w.Select {
			return fmt.Sprintf("select %+v, want %+v", got, *w.Select)
		}
	case "deps":
		var got server.DepsResponse
		if err := json.Unmarshal(resp.body, &got); err != nil {
			return err.Error()
		}
		return compareSigs(depSigs(got.Deps, !w.Scratch), w.Deps)
	case "cmd", "transform":
		var got server.CmdResponse
		if err := json.Unmarshal(resp.body, &got); err != nil {
			return err.Error()
		}
		if got.Err != "" {
			return "command error: " + got.Err
		}
		if got.Output != w.Output {
			return fmt.Sprintf("output %q, want %q", got.Output, w.Output)
		}
	case "plan":
		var got server.PlanResponse
		if err := json.Unmarshal(resp.body, &got); err != nil {
			return err.Error()
		}
		s.cached = got.Cached
		if got.Status != "done" {
			return "plan status " + got.Status + ": " + got.Error
		}
		return compareSigs(planSigs(got.Plans), w.Plans)
	case "apply-plan":
		var got server.ApplyPlanResponse
		if err := json.Unmarshal(resp.body, &got); err != nil {
			return err.Error()
		}
		if got.Hash != w.Hash || got.Applied != w.Applied {
			return fmt.Sprintf("applied %d steps to hash %s, want %d to %s", got.Applied, got.Hash, w.Applied, w.Hash)
		}
	case "run":
		var got server.RunResponse
		if err := json.Unmarshal(resp.body, &got); err != nil {
			return err.Error()
		}
		s.declined = op.Run.Backend == "compile" && got.Fallback != ""
		if got.Backend != w.Backend {
			return fmt.Sprintf("served by %s, want %s", got.Backend, w.Backend)
		}
		if got.Output != w.Output {
			return fmt.Sprintf("output %q, want %q", clip(got.Output), clip(w.Output))
		}
	}
	return ""
}

func compareSigs(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("entry %q, want %q", got[i], want[i])
		}
	}
	return ""
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "…"
	}
	return s
}

// drive runs clients closed-loop over scripts, taken in order from a
// shared cursor, until deadline. It returns every client's samples.
func drive(base string, scripts []*Script, clients int, deadline time.Time, tracer *Tracer, traced func(int) bool) []*client {
	hc := newHTTPClient(clients)
	defer hc.CloseIdleConnections()
	var next atomic.Int64
	stop := func() bool { return time.Now().After(deadline) }
	out := make([]*client, clients)
	var wg sync.WaitGroup
	for i := range out {
		c := &client{id: i, base: base, http: hc, tracer: tracer, traced: traced}
		out[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop() {
				n := int(next.Add(1) - 1)
				c.runScript(scripts[n%len(scripts)], n, stop)
			}
		}()
	}
	wg.Wait()
	return out
}

// newHTTPClient returns a client holding at most conns connections.
func newHTTPClient(conns int) *http.Client {
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &http.Client{Transport: transport, Timeout: 2 * time.Minute}
}

// completeRounds keeps the samples of whole rounds: the longest prefix
// of the stream, in multiples of round sessions, whose sessions all
// ran to the end. Every run then weighs the same mix of sessions,
// whichever session the deadline cut. With no whole round it keeps
// everything.
func completeRounds(clients []*client, round int) []sample {
	done := map[int]bool{}
	var all []sample
	for _, c := range clients {
		for _, n := range c.done {
			done[n] = true
		}
		all = append(all, c.samples...)
	}
	prefix := 0
	for done[prefix] {
		prefix++
	}
	keep := prefix - prefix%round
	if keep == 0 {
		return all
	}
	var out []sample
	for _, s := range all {
		if s.script < keep {
			out = append(out, s)
		}
	}
	return out
}
