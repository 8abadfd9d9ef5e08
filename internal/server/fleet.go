package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tricheck/api"
	"tricheck/internal/core"
	"tricheck/internal/fleet"
	"tricheck/internal/obs"
)

// This file is the server's fleet face: coordinator-mode /v1/verify
// (resolve locally, shard by memo key, stream the coordinator's merged
// records) and the memo-replication endpoints every worker serves so a
// coordinator can warm-start (re)joining peers.

// maxSnapshotBytes bounds a /v1/memo/load body. Memo snapshots are far
// larger than request bodies — a full paper sweep's cache serializes to
// tens of MB — so they get their own cap.
const maxSnapshotBytes = 256 << 20

// keyFilter turns a request's Keys allowlist into the sweep's keep
// predicate (nil = keep everything).
func keyFilter(keys []string) func(string) bool {
	if len(keys) == 0 {
		return nil
	}
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return func(key string) bool { return set[key] }
}

// handleFleetVerify is coordinator-mode /v1/verify: resolve the request
// against the same builtin corpus/model matrix the workers hold,
// compute each (test, stack) pair's content-addressed memo key, and let
// the coordinator shard, hedge and merge. The merged stream is
// byte-compatible with a single node's: same record schema, done/total
// renumbered to the merged frame, this coordinator's trace ID stamped
// on every record.
func (s *Server) handleFleetVerify(w http.ResponseWriter, r *http.Request) {
	var req api.VerifyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBadRequest(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	tests, stacks, backend, err := resolve(&req)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	keep := keyFilter(req.Keys)

	// Jobs in the same stack-major order the engine sweeps in, so the
	// merged summary's stack order matches a single node's.
	var jobs []fleet.Job
	for _, st := range stacks {
		for _, t := range tests {
			key := core.JobKeyBackend(t, st, backend)
			if keep != nil && !keep(key) {
				continue
			}
			jobs = append(jobs, fleet.Job{
				Key:    key,
				Test:   t.Name,
				Stack:  st.Name(),
				Family: t.Shape.Name,
			})
		}
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	span := obs.DefaultTraces.Start(0, 0, "fleet-verify")
	traceHex := span.Trace().String()
	span.Attr("tests", fmt.Sprint(len(tests)))
	span.Attr("stacks", fmt.Sprint(len(stacks)))
	span.Attr("workers", fmt.Sprint(len(s.fleet.Workers())))
	defer span.End()

	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return
	}
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	begin := time.Now()
	s.mu.Lock()
	s.nextSweepID++
	sweepID := s.nextSweepID
	s.sweepStarts[sweepID] = begin
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.sweepStarts, sweepID)
		s.mu.Unlock()
		s.busyNanos.Add(time.Since(begin).Nanoseconds())
	}()
	s.log.Printf("verify[%s]: fleet sweep, %d jobs over %d workers", traceHex, len(jobs), len(s.fleet.Workers()))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	var armedAt time.Time
	arm := func() {
		if time.Since(armedAt) > writeTimeout/4 {
			armedAt = time.Now()
			rc.SetWriteDeadline(armedAt.Add(writeTimeout))
		}
	}

	// The coordinator serializes emit calls under its merge lock, so the
	// encoder needs no extra locking. A failed write aborts the sweep
	// through the returned error, exactly like a local disconnect.
	pending := 0
	sum, err := s.fleet.Sweep(ctx, req, jobs, func(v *api.VerdictRecord) error {
		arm()
		v.Trace = traceHex
		if err := enc.Encode(v); err != nil {
			cancel()
			return err
		}
		s.verdicts.Add(1)
		if pending++; pending >= 256 {
			pending = 0
			flush()
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.cancels.Add(1)
		} else {
			s.errors.Add(1)
		}
		s.log.Printf("verify[%s]: fleet sweep aborted: %v", traceHex, err)
		rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		enc.Encode(api.ErrorRecord{Type: "error", Error: err.Error()})
		flush()
		return
	}
	sum.Trace = traceHex
	rc.SetWriteDeadline(time.Now().Add(writeTimeout))
	enc.Encode(sum)
	flush()
	s.log.Printf("verify[%s]: fleet sweep %d/%d done in %s (bugs=%d strict=%d equiv=%d divergent=%d)",
		traceHex, sum.Done, sum.Total, time.Since(begin).Round(time.Millisecond), sum.Bugs, sum.Strict, sum.Equivalent, sum.Divergent)
}

// handleMemoSnapshot serves a slice of this worker's memo cache as a
// farm snapshot. Without parameters it is the whole cache; with
// ?owner=<url>&ring=<url,url,...>&vnodes=<n> only the entries the
// consistent-hash ring assigns to owner — the coordinator's rebalance
// primitive (each donor computes the joiner's slice locally, so the
// coordinator never holds a full cache in memory).
func (s *Server) handleMemoSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	var keep func(string) bool
	if owner := q.Get("owner"); owner != "" {
		nodes := strings.Split(q.Get("ring"), ",")
		vnodes := 0
		if v := q.Get("vnodes"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad vnodes", http.StatusBadRequest)
				return
			}
			vnodes = n
		}
		ring := fleet.NewRing(nodes, vnodes)
		if ring.Len() == 0 {
			http.Error(w, "owner requires a non-empty ring", http.StatusBadRequest)
			return
		}
		keep = func(key string) bool { return ring.Owner(key) == owner }
	}
	data, err := s.eng.MemoSnapshotSlice(keep)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleMemoLoad merges a posted memo snapshot into this worker's cache
// (last write wins per key; disjoint keys all survive — the farm
// snapshot merge semantics the coordinator's rebalance relies on).
func (s *Server) handleMemoLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.eng.MergeMemoSnapshot(data); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if st, ok := s.eng.MemoStats(); ok {
		s.log.Printf("memo load: cache now %d entries", st.Len)
	}
	fmt.Fprintln(w, "ok")
}
