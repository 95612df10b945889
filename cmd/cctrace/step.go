package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/compile"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

// step walks one block's global state through an explicit reference
// sequence and prints the state after every reference — the manual
// walkthrough protocol designers do on a whiteboard, mechanized. Each
// reference is <cache><op>, e.g. "0R" (cache 0 reads), "2W" (cache 2
// writes), "1Z" (cache 1 replaces); -script supplies them, or standard
// input when it is empty (interactive: bad tokens are reported and
// skipped, "q" quits).
func (c *cli) step(args []string) (int, error) {
	fs := flag.NewFlagSet("cctrace step", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "illinois", "built-in protocol name ("+strings.Join(protocols.Names(), ", ")+")")
		n         = fs.Int("n", 3, "number of caches")
		script    = fs.String("script", "", "space-separated references, e.g. \"0R 1W 0Z\"; empty reads stdin")
		timeout   = fs.Duration("timeout", 0, "wall-clock limit for the whole session (0: none)")
	)
	if err := c.parse(fs, args); err != nil {
		return 0, err
	}
	if fs.NArg() != 0 {
		return 0, fmt.Errorf("step takes no positional arguments, got %q", fs.Args())
	}
	p, err := protocols.ByName(*protoName)
	if err != nil {
		return 0, err
	}

	ctx, stop := runctl.WithSignals(context.Background(), *timeout)
	defer stop()
	in := c.stdin
	if *script != "" {
		in = strings.NewReader(strings.ReplaceAll(*script, " ", "\n"))
	}
	if err := stepSession(ctx, c.stdout, in, p, *n, *script == ""); err != nil {
		if !runctl.IsStop(err) {
			return 0, err
		}
		fmt.Fprintln(c.stderr, "cctrace: stopped early:", err)
		return runctl.ExitStopped, nil
	}
	return runctl.ExitClean, nil
}

// parseRef parses a "<cache><op>" token like "0R" or "12W".
func parseRef(tok string, n int) (int, fsm.Op, error) {
	tok = strings.TrimSpace(tok)
	if len(tok) < 2 {
		return 0, "", fmt.Errorf("reference %q too short (want e.g. 0R)", tok)
	}
	opCh := strings.ToUpper(tok[len(tok)-1:])
	cache, err := strconv.Atoi(tok[:len(tok)-1])
	if err != nil {
		return 0, "", fmt.Errorf("reference %q: bad cache index", tok)
	}
	if cache < 0 || cache >= n {
		return 0, "", fmt.Errorf("reference %q: cache %d out of range 0..%d", tok, cache, n-1)
	}
	switch opCh {
	case "R", "W", "Z":
		return cache, fsm.Op(opCh), nil
	default:
		return 0, "", fmt.Errorf("reference %q: operation must be R, W or Z", tok)
	}
}

func freshness(v, latest int64) string {
	switch {
	case v == fsm.NoData:
		return "-"
	case v == latest:
		return "fresh"
	default:
		return "STALE"
	}
}

func render(w io.Writer, c *fsm.Config) {
	for i, s := range c.States {
		fmt.Fprintf(w, "  cache %d: %-16s %s\n", i, s, freshness(c.Versions[i], c.Latest))
	}
	fmt.Fprintf(w, "  memory:  %s (latest store: v%d)\n", freshness(c.MemVersion, c.Latest), c.Latest)
}

// stepSession runs one session on the compiled protocol. The interpreted
// configuration exists only to render: each step decodes the compiled
// state and canonicalizes its versions (so long sessions print v0, not a
// growing store count) before printing it and checking the invariants.
func stepSession(ctx context.Context, w io.Writer, in io.Reader, p *fsm.Protocol, n int, interactive bool) error {
	if n < 1 {
		return fmt.Errorf("need at least one cache")
	}
	cp, err := compile.Compile(p)
	if err != nil {
		return err
	}
	cc := cp.NewConfig(n)
	var c fsm.Config
	cp.Decode(cc, &c)
	fmt.Fprintf(w, "protocol %s, %d caches; initial state:\n", p.Name, n)
	render(w, &c)
	if interactive {
		fmt.Fprintln(w, "enter references like 0R, 1W, 2Z (q to quit):")
	}

	sc := bufio.NewScanner(in)
	step := 0
	for sc.Scan() {
		if err := runctl.FromContext(ctx); err != nil {
			return fmt.Errorf("replay stopped before step %d: %w", step+1, err)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "q" || line == "quit" || line == "exit" {
			break
		}
		cache, op, err := parseRef(line, n)
		if err != nil {
			if !interactive {
				return err
			}
			fmt.Fprintln(w, " ", err)
			continue
		}
		step++
		// An op the protocol never declares is a no-op, as in fsm.Step.
		res := compile.StepResult{RuleID: -1, ReadVersion: fsm.NoData, Supplier: -1}
		if k := cp.OpIndex(op); k >= 0 {
			if res, err = cp.Step(cc, cache, k); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
		fmt.Fprintf(w, "\nstep %d: cache %d %s", step, cache, op)
		if res.RuleID < 0 {
			fmt.Fprintf(w, " — no-op (no rule for %s in state %s)\n", op, cp.States[cc.States[cache]])
		} else {
			fmt.Fprintf(w, " — rule %s", cp.RulePtr(res.RuleID).Name)
			if res.Supplier >= 0 {
				fmt.Fprintf(w, " (supplied by cache %d)", res.Supplier)
			}
			if op == fsm.OpRead {
				fmt.Fprintf(w, " read %s", freshness(res.ReadVersion, cc.Latest))
			}
			fmt.Fprintln(w)
		}
		cp.Decode(cc, &c)
		enum.Canonicalize(&c)
		render(w, &c)
		for _, v := range fsm.CheckConfig(p, &c, true) {
			fmt.Fprintf(w, "  !! %s\n", v.Error())
		}
	}
	return sc.Err()
}
