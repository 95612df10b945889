package protocols

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/compile"
	"repro/internal/fsm"
)

// mu guards registry: the built-in table is extended at runtime by Register
// and LoadDir (e.g. ccserved -spec-dir), and read concurrently by lookups.
var mu sync.RWMutex

// registry maps canonical names to detached masters; every lookup hands
// out a Clone, so callers never alias each other's state.
var registry = map[string]*fsm.Protocol{}

// canonicalName maps a protocol name to its registry key: lowercase,
// trimmed, with underscores and spaces folded to dashes. Registration and
// lookup share this mapping, so "Write-Once", "write_once" and
// "WRITE ONCE" all address the same entry.
func canonicalName(name string) string {
	key := strings.ToLower(strings.TrimSpace(name))
	key = strings.ReplaceAll(key, "_", "-")
	return strings.ReplaceAll(key, " ", "-")
}

// Names returns the registered protocol names in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByName returns a fresh instance of the named protocol. Lookup is
// case-insensitive and tolerates the conventional display names
// ("Illinois", "Write-Once").
func ByName(name string) (*fsm.Protocol, error) {
	mu.RLock()
	p, ok := registry[canonicalName(name)]
	mu.RUnlock()
	if ok {
		return p.Clone(), nil
	}
	return nil, fmt.Errorf("protocols: unknown protocol %q (have %s)", name, strings.Join(Names(), ", "))
}

// Register adds a protocol under its canonical name. The protocol is
// validated once up front; lookups then return deep copies so callers can
// never alias each other's state. Registering a name that is already taken
// (built-in or previously registered) is an error — the built-in library is
// authoritative and silent shadowing would change verdicts.
func Register(p *fsm.Protocol) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("protocols: registering %q: %w", p.Name, err)
	}
	key := canonicalName(p.Name)
	if key == "" {
		return fmt.Errorf("protocols: protocol has no name")
	}
	// Keep a detached master copy so the registrant cannot alias it either.
	master := p.Clone()
	mu.Lock()
	defer mu.Unlock()
	if _, taken := registry[key]; taken {
		return fmt.Errorf("protocols: name %q already registered", key)
	}
	registry[key] = master
	return nil
}

// LoadDir registers every compiled protocol (*.ccfsm) in dir, returning the
// canonical names added, sorted. Files are loaded in name order so
// duplicate-name errors are deterministic; any unreadable, corrupt or
// conflicting file fails the whole load.
func LoadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("protocols: %w", err)
	}
	var added []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ccfsm") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		p, err := compile.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("protocols: loading %s: %w", path, err)
		}
		if err := Register(p); err != nil {
			return nil, fmt.Errorf("protocols: loading %s: %w", path, err)
		}
		added = append(added, canonicalName(p.Name))
	}
	sort.Strings(added)
	return added, nil
}

// All returns fresh instances of every registered protocol, sorted by name.
func All() []*fsm.Protocol {
	names := Names()
	mu.RLock()
	defer mu.RUnlock()
	out := make([]*fsm.Protocol, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n].Clone())
	}
	return out
}
