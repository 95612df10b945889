package enum

import (
	"context"
	"fmt"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/runctl"
)

// Configs replays the reachable set of the run that returned r from its
// provenance records, without the visited set or a spilled run's files: fn
// receives every state the run admitted, in admission order and in the
// cache order the engine held it in (for a counting run, its class's
// representative). c is reused between calls. The replay stops at fn's
// first error, or with ctx's run-control stop (runctl.ErrCanceled or
// runctl.ErrDeadline).
func (r *Result) Configs(ctx context.Context, fn func(c *fsm.Config) error) error {
	var c fsm.Config
	_, err := replay(ctx, r.kc, r.parents, func(_ uint32, state *Key, _ Key) error {
		r.kc.decodeConfig(state.bytes(r.kc.width), &c)
		return fn(&c)
	})
	return err
}

// Steps replays the run's reachable set, as Configs does, and re-steps
// each state as the engine expanded it: in (cache, op) order, skipping a
// counting run's symmetric caches. fn receives every step in that order,
// with the admission ranks of the state expanded and of the state
// reached, and the rule that fired (nil if none). A step that leaves the
// run's reachable set is an error.
func (r *Result) Steps(ctx context.Context, fn func(from, to, cache int, op fsm.Op, rule *fsm.Rule) error) error {
	kc := r.kc
	ranks := make(map[Key]uint32, len(r.parents))
	if _, err := replay(ctx, kc, r.parents, func(rank uint32, _ *Key, key Key) error {
		ranks[key] = rank
		return nil
	}); err != nil {
		return err
	}
	var base, work compile.Config
	_, err := replay(ctx, kc, r.parents, func(from uint32, state *Key, key Key) error {
		b := state.bytes(kc.width)
		kc.decode(b, &base)
		for i := 0; i < kc.n; i++ {
			if kc.mode == ModeCounting && kc.shadowed(b, i) {
				continue
			}
			for k, op := range kc.p.Ops {
				if !kc.cp.HasRules(int(base.States[i]), k) {
					continue
				}
				work.CopyFrom(&base)
				sr, err := kc.cp.Step(&work, i, k)
				if err != nil {
					return fmt.Errorf("enum: expanding %s: %w", kc.render(key), err)
				}
				_, next := kc.keys(&work)
				to, ok := ranks[next]
				if !ok {
					return fmt.Errorf("enum: %s steps to %s, which the run did not reach", kc.render(key), kc.render(next))
				}
				if err := fn(int(from), int(to), i, op, kc.cp.Result(sr).Rule); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return err
}

// replay walks provenance records in admission order and rebuilds each
// state: the initial configuration at rank 0, and at rank r its parent's
// successor under the recorded (cache, op) step. fn receives each rank
// with its state key (cache order, valid during the call) and dedup key.
// A state's parent sits in the level before its own, and parent ranks
// never decrease (each level's reconcile commits in the frontier's
// order), so the replay streams: it holds the parent level and the level
// being rebuilt, and a record whose parent is in the latter opens the
// next. It returns the peak number of states it held.
func replay(ctx context.Context, kc *keyCodec, parents []parentRec, fn func(r uint32, state *Key, key Key) error) (peak int, err error) {
	var prev, cur []Key
	prevBase, curBase := 0, 0 // ranks of their first states
	var work compile.Config
	for r, rec := range parents {
		if r&1023 == 0 {
			if err := runctl.FromContext(ctx); err != nil {
				return peak, err
			}
		}
		p := int(rec.parent)
		switch {
		case r == 0 && rec.parent == noParent:
			work = *kc.cp.NewConfig(kc.n)
		case r == 0 || rec.parent == noParent || p >= r:
			return peak, fmt.Errorf("enum: provenance %d has parent rank %d, not below its own", r, int32(rec.parent))
		default:
			if p >= curBase {
				prev, cur = cur, prev[:0]
				prevBase, curBase = curBase, r
			}
			if p < prevBase {
				return peak, fmt.Errorf("enum: provenance %d has parent rank %d, before its predecessor's level", r, p)
			}
			kc.decode(prev[p-prevBase].bytes(kc.width), &work)
			if _, err := kc.cp.Step(&work, int(rec.cache), int(rec.op)); err != nil {
				return peak, fmt.Errorf("enum: replaying provenance %d: %w", r, err)
			}
		}
		state, key := kc.keys(&work)
		cur = append(cur, state)
		peak = max(peak, len(prev)+len(cur))
		if err := fn(uint32(r), &cur[len(cur)-1], key); err != nil {
			return peak, err
		}
	}
	return peak, nil
}
