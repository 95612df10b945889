package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/ckptio"
	"repro/internal/cluster"
)

// computeRequest is the body of the cluster-internal POST
// /v1/cluster/compute call (cluster.ComputePath). The cluster layer ships
// it opaquely; both ends are this package, so the schema is the serve
// layer's to evolve. The spec travels in canonical form — the receiving
// node re-derives the cache key from it, so a forwarded job lands on
// exactly the content address the sender expects.
type computeRequest struct {
	Spec string `json:"spec"`
	JobOptions
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	Batch     bool   `json:"batch,omitempty"`
}

// handleClusterCompute serves a forwarded verification job: resolve the
// shipped spec, run it as a routed submission (cache, coalesce,
// admission), wait for the terminal state, and answer with the report
// bytes in the CRC envelope. Requests must carry the forwarded marker,
// and a routed submission never forwards — one marker per hop and no
// second hop makes forwarding loops structurally impossible. Routing also
// skips the peer cache probe (the sender already routed this job to its
// owners, so asking them back adds latency, never information) and the
// rate charge (the origin node already charged the tenant's bucket). A
// saturated or draining node answers 429/503, which the sender treats as
// a clean rejection (try the next owner, then queue locally) rather than
// a failure.
func (s *Server) handleClusterCompute(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(cluster.ForwardedHeader) == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: cluster-internal endpoint requires %s", cluster.ForwardedHeader))
		return
	}
	var req computeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad compute request: %w", err))
		return
	}
	p, canonical, err := ResolveSpec("", req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts := req.JobOptions
	if err := opts.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	state, _, errText, payload, err := s.runRouted(r.Context(), p, canonical, opts, SubmitOptions{
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		Tenant:  req.Tenant,
		Batch:   req.Batch,
	})
	switch {
	case err != nil && r.Context().Err() != nil:
		// The sender hedged away or timed out. The local job keeps running:
		// its result lands in the cache, where the next probe for this key
		// finds it — abandoning finished-soon work would waste the compute.
	case err != nil:
		writeSubmitError(w, err)
	case state == StateDone:
		s.stats.peerComputeServed.Add(1)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(ckptio.Encode(payload))
	case state == StateCanceled:
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: forwarded job canceled: %s", errText))
	default:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: forwarded job failed: %s", errText))
	}
}
