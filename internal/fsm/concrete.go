package fsm

import (
	"fmt"
	"strconv"
	"strings"
)

// NoData is the version number of a cache that holds no copy of the block.
const NoData int64 = -1

// Config is a concrete global state of one memory block in a system with a
// fixed number of caches: the tuple of per-cache states (Definition 2 of the
// paper) augmented with concrete data versions standing in for the context
// variables of Definition 4. Version numbers replace abstract data values: a
// store creates version Latest+1, and a copy is fresh exactly when its
// version equals Latest.
type Config struct {
	// States[i] is the state of cache i.
	States []State
	// Versions[i] is the data version held by cache i, or NoData.
	Versions []int64
	// MemVersion is the version held by main memory.
	MemVersion int64
	// Latest is the version created by the most recent store (0 before any
	// store; memory initially holds version 0).
	Latest int64
}

// NewConfig returns the initial configuration for n caches of protocol p:
// every cache in the Initial state with no data, memory fresh at version 0.
func NewConfig(p *Protocol, n int) *Config {
	c := &Config{
		States:   make([]State, n),
		Versions: make([]int64, n),
	}
	for i := range c.States {
		c.States[i] = p.Initial
		c.Versions[i] = NoData
	}
	return c
}

// Clone returns an independent deep copy.
func (c *Config) Clone() *Config {
	return &Config{
		States:     append([]State(nil), c.States...),
		Versions:   append([]int64(nil), c.Versions...),
		MemVersion: c.MemVersion,
		Latest:     c.Latest,
	}
}

// CopyFrom overwrites c with a deep copy of src, reusing c's slice capacity
// when possible. It is the allocation-free counterpart of Clone used by the
// enumeration engines' configuration pools.
func (c *Config) CopyFrom(src *Config) {
	c.States = append(c.States[:0], src.States...)
	c.Versions = append(c.Versions[:0], src.Versions...)
	c.MemVersion = src.MemVersion
	c.Latest = src.Latest
}

// N returns the number of caches.
func (c *Config) N() int { return len(c.States) }

// Key returns a canonical string identifying the full configuration
// including data versions: "State:v,State:v,...|m:v|l:v".
func (c *Config) Key() string {
	var buf [128]byte
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends Key's rendering of c to dst and returns the extended
// buffer, so a caller holding a reused buffer renders without allocating.
func (c *Config) AppendKey(dst []byte) []byte {
	for i, s := range c.States {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, s...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, c.Versions[i], 10)
	}
	dst = append(dst, "|m:"...)
	dst = strconv.AppendInt(dst, c.MemVersion, 10)
	dst = append(dst, "|l:"...)
	return strconv.AppendInt(dst, c.Latest, 10)
}

// CanonicalKeyLen bounds the length of Key for n caches whose versions are
// canonical (-2, -1 or 0), and so of the enumeration's counting key, which
// is shorter: n "State:v" pairs of the longest state name, n-1 commas and
// the "|m:v|l:v" tail. Renderers size their buffers with it.
func (p *Protocol) CanonicalKeyLen(n int) int {
	name := 0
	for _, s := range p.States {
		name = max(name, len(s))
	}
	return n*(name+4) + len("|m:-2|l:-2")
}

// StateKey returns a canonical string identifying only the state tuple,
// ignoring data. This is the strict-equivalence key of Section 3.1.
func (c *Config) StateKey() string {
	parts := make([]string, len(c.States))
	for i, s := range c.States {
		parts[i] = string(s)
	}
	return strings.Join(parts, ",")
}

// String renders the configuration as (q1, q2, ..., qn).
func (c *Config) String() string { return "(" + c.StateKey() + ")" }

// EvalGuard evaluates guard g for originator cache i over configuration c.
func EvalGuard(g Guard, c *Config, origin int) bool {
	switch g.Kind {
	case GuardAlways:
		return true
	case GuardAnyOther, GuardNoOther:
		found := false
		for j, s := range c.States {
			if j == origin {
				continue
			}
			for _, gs := range g.States {
				if s == gs {
					found = true
				}
			}
			if found {
				break
			}
		}
		if g.Kind == GuardAnyOther {
			return found
		}
		return !found
	default:
		return false
	}
}

// StepResult reports what happened during one concrete Step.
type StepResult struct {
	// Rule is the rule that fired, or nil when the operation was a no-op in
	// the originator's state (e.g. replacing an Invalid block).
	Rule *Rule
	// ReadVersion is the version the processor observed on OpRead, or
	// NoData for other operations.
	ReadVersion int64
	// Supplier is the index of the cache that supplied data, or -1.
	Supplier int
}

// Step applies operation op issued by cache origin to configuration c under
// protocol p, mutating c in place. The bus transaction is atomic, matching
// the paper's assumption of atomic accesses (Section 2.4).
//
// Step returns an error only for specification-level problems (no rule's
// guard matched although rules exist for the pair, or a SrcCache rule fired
// with no available supplier); such errors indicate an ill-formed protocol,
// not a coherence violation. Coherence violations are detected by CheckConfig.
//
// Step is the reference semantics. Its one production caller is the
// campaign witness audit (internal/campaign/audit.go), which replays
// witnesses here precisely because this path is independent of the
// compiled one. Everything else — the simulator, the enumeration engines,
// trace replay and `cctrace step` — steps through compile.Compile then
// compile.Protocol.Step, which the compile parity suite pins bit-for-bit
// against this function, including error text.
func Step(p *Protocol, c *Config, origin int, op Op) (StepResult, error) {
	res := StepResult{ReadVersion: NoData, Supplier: -1}
	if origin < 0 || origin >= len(c.States) {
		return res, fmt.Errorf("fsm: step: cache index %d out of range", origin)
	}
	rules := p.RulesFor(c.States[origin], op)
	if len(rules) == 0 {
		return res, nil // no-op in this state
	}
	var rule *Rule
	for _, r := range rules {
		if EvalGuard(r.Guard, c, origin) {
			rule = r
			break
		}
	}
	if rule == nil {
		return res, fmt.Errorf("fsm: protocol %s: no guard matched for cache %d in state %s on %s of %s",
			p.Name, origin, c.States[origin], op, c.String())
	}
	res.Rule = rule

	// 1. Locate a supplier and capture its data before any state changes.
	origVer := c.Versions[origin]
	switch rule.Data.Source {
	case SrcNone:
		origVer = NoData
	case SrcKeep:
		// unchanged
	case SrcMemory:
		origVer = c.MemVersion
	case SrcCache:
		sup := -1
		for _, ss := range rule.Data.Suppliers {
			for j, s := range c.States {
				if j != origin && s == ss {
					sup = j
					break
				}
			}
			if sup >= 0 {
				break
			}
		}
		if sup < 0 {
			return res, fmt.Errorf("fsm: protocol %s: rule %s fired with no supplier in %v for %s",
				p.Name, rule.Name, rule.Data.Suppliers, c.String())
		}
		res.Supplier = sup
		origVer = c.Versions[sup]
		if rule.Data.SupplierWriteBack {
			c.MemVersion = c.Versions[sup]
		}
	}

	// 2. Coincident (observed) transitions on all other caches.
	for j := range c.States {
		if j == origin {
			continue
		}
		next := rule.ObservedNext(c.States[j])
		c.States[j] = next
		if !p.IsValidCopy(next) {
			c.Versions[j] = NoData
		}
	}

	// 3. Originator transition.
	c.States[origin] = rule.Next

	// 4. Store semantics: a new value is created; every copy not explicitly
	// updated becomes stale relative to it.
	if rule.Data.Store {
		c.Latest++
		origVer = c.Latest
		if rule.Data.WriteThrough {
			c.MemVersion = c.Latest
		}
		if rule.Data.UpdateSharers {
			for j := range c.States {
				if j != origin && p.IsValidCopy(c.States[j]) {
					c.Versions[j] = c.Latest
				}
			}
		}
	}

	// 5. Write-back and drop.
	if rule.Data.WriteBackSelf {
		c.MemVersion = origVer
	}
	if rule.Data.DropSelf {
		origVer = NoData
	}
	c.Versions[origin] = origVer

	if op == OpRead {
		res.ReadVersion = c.Versions[origin]
	}
	return res, nil
}

// Violation describes a correctness violation found in a configuration.
type Violation struct {
	Kind   ViolationKind
	Detail string
}

// ViolationKind classifies concrete and symbolic invariant violations.
type ViolationKind int

const (
	// ViolationNone means the state is permissible.
	ViolationNone ViolationKind = iota
	// ViolationExclusive: a cache in an exclusive state coexists with
	// another valid copy.
	ViolationExclusive
	// ViolationOwners: two or more caches hold ownership states.
	ViolationOwners
	// ViolationStaleRead: a cache in a readable state holds an obsolete
	// value (Definition 3).
	ViolationStaleRead
	// ViolationCleanShared: a clean-shared copy coexists with obsolete
	// memory (extension check, not part of the paper's Definition 3).
	ViolationCleanShared
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationNone:
		return "none"
	case ViolationExclusive:
		return "exclusive-state-conflict"
	case ViolationOwners:
		return "multiple-owners"
	case ViolationStaleRead:
		return "stale-readable-copy"
	case ViolationCleanShared:
		return "clean-shared-vs-stale-memory"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

func (v Violation) Error() string {
	return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
}

// KindSet is a set of violation kinds, one bit per ViolationKind.
type KindSet uint8

// Has reports whether k is in the set.
func (s KindSet) Has(k ViolationKind) bool { return s&(1<<uint(k)) != 0 }

// Add returns the set with k added.
func (s KindSet) Add(k ViolationKind) KindSet { return s | 1<<uint(k) }

// CheckConfig evaluates the protocol invariants (Section 5.4 of DESIGN.md)
// over a concrete configuration and returns every violation found. The
// strict flag additionally enables the CleanShared memory check. The
// details are rendered back to back into one buffer, on this frame until
// it fills, and become substrings of one string, so a violating
// configuration costs two allocations however many violations it has.
func CheckConfig(p *Protocol, c *Config, strict bool) []Violation {
	var (
		textBuf  [512]byte
		foundBuf [16]detailMark
	)
	_, text, found := check(p, c, strict, textBuf[:0], foundBuf[:0])
	if len(found) == 0 {
		return nil
	}
	details := string(text)
	out := make([]Violation, len(found))
	from := 0
	for i, m := range found {
		out[i] = Violation{Kind: m.kind, Detail: details[from:m.end]}
		from = m.end
	}
	return out
}

// CheckKinds is CheckConfig reduced to the set of violated kinds. It runs
// the same checks but renders no details, so callers that only compare
// kinds (the witness auditor) pay nothing for formatting.
func CheckKinds(p *Protocol, c *Config, strict bool) KindSet {
	kinds, _, _ := check(p, c, strict, nil, nil)
	return kinds
}

// detailMark is one violation check rendered: its kind and the end of its
// detail in the text, which starts where the previous detail ends.
type detailMark struct {
	kind ViolationKind
	end  int
}

// check is the single walk behind CheckConfig and CheckKinds: it returns
// the violated kinds and, when found is non-nil, appends each violation's
// detail to text and its mark to found.
func check(p *Protocol, c *Config, strict bool, text []byte, found []detailMark) (KindSet, []byte, []detailMark) {
	var kinds KindSet
	render := found != nil
	emit := func(k ViolationKind) { found = append(found, detailMark{k, len(text)}) }

	// Exclusive: cache in exclusive state must be the sole valid copy.
	for i, s := range c.States {
		if !inStates(s, p.Inv.Exclusive) {
			continue
		}
		for j, t := range c.States {
			if j == i || !inStates(t, p.Inv.ValidCopy) {
				continue
			}
			kinds = kinds.Add(ViolationExclusive)
			if render {
				text = append(text, "cache "...)
				text = strconv.AppendInt(text, int64(i), 10)
				text = append(text, " in exclusive state "...)
				text = append(text, s...)
				text = append(text, " coexists with cache "...)
				text = strconv.AppendInt(text, int64(j), 10)
				text = append(text, " in "...)
				text = append(text, t...)
				emit(ViolationExclusive)
			}
		}
	}

	// Owners: at most one cache across all owner states.
	owners := 0
	for _, s := range c.States {
		if inStates(s, p.Inv.Owners) {
			owners++
		}
	}
	if owners > 1 {
		kinds = kinds.Add(ViolationOwners)
		if render {
			text = strconv.AppendInt(text, int64(owners), 10)
			text = append(text, " caches hold ownership states"...)
			emit(ViolationOwners)
		}
	}

	// Data consistency (Definition 3): readable copies must be fresh.
	for i, s := range c.States {
		if !inStates(s, p.Inv.Readable) || c.Versions[i] == c.Latest {
			continue
		}
		kinds = kinds.Add(ViolationStaleRead)
		if render {
			text = append(text, "cache "...)
			text = strconv.AppendInt(text, int64(i), 10)
			text = append(text, " in readable state "...)
			text = append(text, s...)
			text = append(text, " holds version "...)
			text = strconv.AppendInt(text, c.Versions[i], 10)
			text = append(text, " but latest is "...)
			text = strconv.AppendInt(text, c.Latest, 10)
			emit(ViolationStaleRead)
		}
	}

	if strict && len(p.Inv.CleanShared) > 0 {
		for i, s := range c.States {
			if !inStates(s, p.Inv.CleanShared) || c.MemVersion == c.Versions[i] {
				continue
			}
			kinds = kinds.Add(ViolationCleanShared)
			if render {
				text = append(text, "cache "...)
				text = strconv.AppendInt(text, int64(i), 10)
				text = append(text, " in clean state "...)
				text = append(text, s...)
				text = append(text, " holds version "...)
				text = strconv.AppendInt(text, c.Versions[i], 10)
				text = append(text, " but memory holds "...)
				text = strconv.AppendInt(text, c.MemVersion, 10)
				emit(ViolationCleanShared)
			}
		}
	}
	return kinds, text, found
}

func inStates(s State, set []State) bool {
	for _, t := range set {
		if s == t {
			return true
		}
	}
	return false
}
