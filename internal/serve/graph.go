package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/enum"
	"repro/internal/graph"
)

// Transition-graph export formats (GET /v1/jobs/{id}/graph?format=...).
const (
	GraphFormatDOT  = "dot"
	GraphFormatJSON = "json"
)

// Content types of the graph formats.
const (
	graphContentDOT  = "text/vnd.graphviz; charset=utf-8"
	graphContentJSON = "application/json"
)

// Typed graph-endpoint rejections.
var (
	// ErrNoGraph: the job kind has no transition graph (simulate jobs).
	ErrNoGraph = errors.New("serve: job has no transition graph")
	// ErrGraphNotReady: the job has not completed successfully yet.
	ErrGraphNotReady = errors.New("serve: job has not completed successfully")
	// ErrGraphFormat: unknown ?format value.
	ErrGraphFormat = errors.New("serve: unknown graph format")
)

// JobGraph renders the transition graph of a completed verification job:
// the global diagram over essential states (the paper's Figure 4) for
// symbolic jobs, the concrete reachability diagram over canonical
// configurations for enumeration jobs. The graph is computed on demand from
// the job's retained protocol and options — reports stay pure verdict
// documents — and memoized per format on the job, so repeated requests
// return byte-identical bytes without re-expansion. The returned string is
// the response content type.
func (s *Server) JobGraph(ctx context.Context, id, format string) ([]byte, string, error) {
	j, ok := s.JobByID(id)
	if !ok {
		return nil, "", fmt.Errorf("serve: unknown job %q", id)
	}
	switch format {
	case GraphFormatDOT, GraphFormatJSON:
	case "":
		format = GraphFormatDOT
	default:
		return nil, "", fmt.Errorf("%w %q (want %q or %q)", ErrGraphFormat, format, GraphFormatDOT, GraphFormatJSON)
	}
	ctype := graphContentDOT
	if format == GraphFormatJSON {
		ctype = graphContentJSON
	}
	if j.kind != jobVerify || j.proto == nil {
		return nil, "", ErrNoGraph
	}
	state, _, errText, _ := j.snapshot()
	if state != StateDone || errText != "" {
		return nil, "", fmt.Errorf("%w (state %s)", ErrGraphNotReady, state)
	}

	j.mu.Lock()
	cached := j.graphs[format]
	j.mu.Unlock()
	if cached != nil {
		return cached, ctype, nil
	}

	data, err := buildJobGraph(ctx, j, format)
	if err != nil {
		return nil, "", err
	}
	j.mu.Lock()
	if j.graphs == nil {
		j.graphs = make(map[string][]byte, 2)
	}
	j.graphs[format] = data
	j.mu.Unlock()
	return data, ctype, nil
}

// buildJobGraph recomputes the job's reachable structure under ctx, with
// the job's own width, bound and strictness, and renders it: the global
// diagram over a symbolic job's essential states, or the concrete diagram
// replayed from an enum job's enumeration run. Verification already proved
// the run terminates within the job's bounds, and a cancelled ctx (a
// client that went away) stops the run, the diagram's build and its
// rendering at their next check.
func buildJobGraph(ctx context.Context, j *Job, format string) ([]byte, error) {
	var g interface {
		DOT(context.Context) ([]byte, error)
		JSON(context.Context) ([]byte, error)
	}
	if j.opts.Engine == EngineSymbolic {
		eng, res, err := expand(ctx, j.proto, j.opts, nil)
		if err != nil {
			return nil, err
		}
		if g, err = graph.BuildGlobal(eng, res.Essential); err != nil {
			return nil, err
		}
	} else {
		res, err := enumerate(ctx, j.proto, j.opts, enum.Options{})
		if err != nil {
			return nil, err
		}
		if g, err = graph.BuildConcrete(ctx, res); err != nil {
			return nil, err
		}
	}
	if format == GraphFormatJSON {
		return g.JSON(ctx)
	}
	return g.DOT(ctx)
}

// handleJobGraph is GET /v1/jobs/{id}/graph: the transition-graph view of
// a completed verification job, as Graphviz DOT (the default) or JSON.
func (s *Server) handleJobGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, ctype, err := s.JobGraph(r.Context(), id, r.URL.Query().Get("format"))
	if err != nil {
		switch {
		case errors.Is(err, ErrGraphFormat):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrNoGraph):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrGraphNotReady):
			writeError(w, http.StatusConflict, err)
		default:
			if _, ok := s.JobByID(id); !ok {
				writeError(w, http.StatusNotFound, err)
				return
			}
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(data)
}
