package protocols

import (
	"testing"

	"repro/internal/fsm"
)

func TestLockMSIValidates(t *testing.T) {
	if err := LockMSI().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLockMSIHasFiveOperations(t *testing.T) {
	p := LockMSI()
	if len(p.Ops) != 5 {
		t.Fatalf("ops = %v", p.Ops)
	}
	found := map[fsm.Op]bool{}
	for _, op := range p.Ops {
		found[op] = true
	}
	if !found[OpAcquire] || !found[OpRelease] {
		t.Fatal("lock operations missing")
	}
}

func TestLockMSIAcquireSpinsWhileLocked(t *testing.T) {
	p := LockMSI()
	c := fsm.NewConfig(p, 3)
	// Cache 0 acquires the lock.
	res, err := fsm.Step(p, c, 0, OpAcquire)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rule.Name != "acquire-clean" || c.States[0] != LkLocked {
		t.Fatalf("first acquire: rule %s, state %s", res.Rule.Name, c.States[0])
	}
	// Cache 1 tries: must spin, leaving both states unchanged.
	res, err = fsm.Step(p, c, 1, OpAcquire)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rule.Name != "acquire-spin" || !res.Rule.Data.Spin {
		t.Fatalf("second acquire must spin, got rule %s", res.Rule.Name)
	}
	if c.States[0] != LkLocked || c.States[1] != "Invalid" {
		t.Fatalf("spin changed states: %v", c.States)
	}
	// Reads and writes by others spin too.
	if res, _ := fsm.Step(p, c, 2, fsm.OpRead); res.Rule == nil || !res.Rule.Data.Spin {
		t.Fatal("a read must spin while the block is locked")
	}
	if res, _ := fsm.Step(p, c, 2, fsm.OpWrite); res.Rule == nil || !res.Rule.Data.Spin {
		t.Fatal("a write must spin while the block is locked")
	}
	// Release hands the lock over.
	if _, err := fsm.Step(p, c, 0, OpRelease); err != nil {
		t.Fatal(err)
	}
	if c.States[0] != "Modified" {
		t.Fatalf("release should retain the data Modified, got %s", c.States[0])
	}
	res, err = fsm.Step(p, c, 1, OpAcquire)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rule.Name != "acquire-owned" || c.States[1] != LkLocked || c.States[0] != "Invalid" {
		t.Fatalf("handover failed: rule %s, states %v", res.Rule.Name, c.States)
	}
}

func TestLockMSIMutualExclusionConcretely(t *testing.T) {
	// Brute-force random walks: no reachable configuration may hold two
	// locks, and lock data must never go stale.
	p := LockMSI()
	ops := []fsm.Op{fsm.OpRead, fsm.OpWrite, fsm.OpReplace, OpAcquire, OpAcquire, OpRelease}
	state := uint64(99)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for n := 2; n <= 4; n++ {
		c := fsm.NewConfig(p, n)
		for k := 0; k < 20000; k++ {
			i := next(n)
			op := ops[next(len(ops))]
			res, err := fsm.Step(p, c, i, op)
			if err != nil {
				t.Fatalf("n=%d step %d: %v", n, k, err)
			}
			locked := 0
			for _, s := range c.States {
				if s == LkLocked {
					locked++
				}
			}
			if locked > 1 {
				t.Fatalf("n=%d step %d: %d caches hold the lock in %s", n, k, locked, c)
			}
			if op == fsm.OpRead && res.Rule != nil && !res.Rule.Data.Spin &&
				res.ReadVersion != c.Latest {
				t.Fatalf("n=%d step %d: stale read", n, k)
			}
			if vs := fsm.CheckConfig(p, c, false); len(vs) != 0 {
				t.Fatalf("n=%d step %d: %v", n, k, vs[0])
			}
		}
	}
}

func TestLockMSIBrokenSpinGuardDetected(t *testing.T) {
	// Break the mutual exclusion: let an acquire succeed even while the
	// lock is held elsewhere. The verifier must refute it.
	p := LockMSI()
	for i := range p.Rules {
		if p.Rules[i].Name == "acquire-spin" {
			p.Rules[i].Next = LkLocked
			p.Rules[i].Data = fsm.DataEffect{Source: fsm.SrcMemory, Store: true}
		}
	}
	p = p.Clone()
	p.Name = "Lock-MSI!broken-spin"
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := fsm.NewConfig(p, 2)
	if _, err := fsm.Step(p, c, 0, OpAcquire); err != nil {
		t.Fatal(err)
	}
	if _, err := fsm.Step(p, c, 1, OpAcquire); err != nil {
		t.Fatal(err)
	}
	vs := fsm.CheckConfig(p, c, false)
	if len(vs) == 0 {
		t.Fatal("two holders must violate mutual exclusion concretely")
	}
}

func TestLockMSISpinValidation(t *testing.T) {
	// The fsm layer rejects malformed spin rules.
	p := LockMSI()
	for i := range p.Rules {
		if p.Rules[i].Name == "acquire-spin" {
			p.Rules[i].Next = LkLocked // spin must stay in place
		}
	}
	p = p.Clone()
	if err := p.Validate(); err == nil {
		t.Fatal("a spin rule that moves must be rejected")
	}
	q := LockMSI()
	for i := range q.Rules {
		if q.Rules[i].Name == "acquire-spin" {
			q.Rules[i].Data.Store = true
		}
	}
	q = q.Clone()
	if err := q.Validate(); err == nil {
		t.Fatal("a spin rule with side effects must be rejected")
	}
}
