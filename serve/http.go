package serve

import (
	"encoding/json"
	"net/http"

	"dcasdeque/internal/metrics"
	"dcasdeque/internal/telemetry"
)

// JobResponse is the wire shape of a completed job.
type JobResponse struct {
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`
	Result uint64 `json:"result"`
	Data   string `json:"data,omitempty"`
	Worker int    `json:"worker"`
	// QueueNs is admission → scheduler accept (the backpressure the
	// client actually waited through); RunNs is execution time.
	QueueNs int64 `json:"queue_ns"`
	RunNs   int64 `json:"run_ns"`
}

// ServeHTTP is the job endpoint: POST a Job, receive a JobResponse.
// Tenancy is the X-Tenant header (unknown names land on the first
// configured tenant).  Backpressure is explicit: a full tenant queue
// answers 429 and a draining server 503, both with Retry-After.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	t0 := metrics.Nanotime()
	var job Job
	if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := job.validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A well-formed job is "received"; from here every path increments
	// exactly one of accepted / rejected_busy / rejected_drain, so the
	// admission counters conserve.
	t := s.tenantFor(r.Header.Get("X-Tenant"))
	s.sink.Inc(t.idx, telemetry.ServeReceived)

	if !s.admit() {
		s.sink.Inc(t.idx, telemetry.ServeRejectedDrain)
		reject(w, http.StatusServiceUnavailable, "draining")
		return
	}
	p := &pending{job: job, t: t, enqNs: metrics.Nanotime(), done: make(chan result, 1)}
	if err := t.queue.PushRight(p); err != nil {
		// ErrFull from the bounded tenant queue: the ErrSaturated
		// backpressure story made client-visible.  unadmit undoes the
		// ingress count so a rejected request leaves nothing to drain.
		s.unadmit()
		s.sink.Inc(t.idx, telemetry.ServeRejectedBusy)
		reject(w, http.StatusTooManyRequests, "tenant queue full")
		return
	}
	s.sink.Inc(t.idx, telemetry.ServeAccepted)
	s.sink.Stage(telemetry.StageIngest, uint64(metrics.Nanotime()-t0))
	// Publish the work, then ping the pump — the submitter half of the
	// scheduler's Dekker handshake, one layer up.
	select {
	case s.notify <- struct{}{}:
	default:
	}

	select {
	case res := <-p.done:
		if res.err != nil {
			// Defensive: the drain order hands every admitted request to
			// sched before shutting it down, so this path needs a scheduler
			// refusing outside that order.  The client is answered, never
			// stranded.
			s.sink.Inc(t.idx, telemetry.ServeAbandoned)
			reject(w, http.StatusServiceUnavailable, "scheduler shut down")
			return
		}
		s.sink.Stage(telemetry.StageRun, uint64(res.runNs))
		resp := JobResponse{
			Tenant:  t.name,
			Kind:    job.Kind,
			Result:  res.value,
			Data:    res.data,
			Worker:  res.worker,
			QueueNs: p.subNs - p.enqNs,
			RunNs:   res.runNs,
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
		s.sink.Stage(telemetry.StageRespond, uint64(metrics.Nanotime()-res.doneNs))
		s.sink.Inc(t.idx, telemetry.ServeCompleted)
	case <-s.killed:
		// Drain deadline expired: release the client with 503.  The job
		// itself still runs exactly once on the background drain; its
		// result send lands in the buffered channel and is dropped.
		s.sink.Inc(t.idx, telemetry.ServeAbandoned)
		reject(w, http.StatusServiceUnavailable, "drain deadline exceeded")
	case <-r.Context().Done():
		// Client went away; same accounting — the job is not lost, its
		// response is.
		s.sink.Inc(t.idx, telemetry.ServeAbandoned)
	}
}

// retryAfter is the Retry-After hint, in whole seconds, attached to 429
// and 503 responses.
const retryAfter = "1"

// reject writes a backpressure response with the Retry-After hint.
func reject(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Retry-After", retryAfter)
	http.Error(w, msg, code)
}
