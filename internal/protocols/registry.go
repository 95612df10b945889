package protocols

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/ccpsl"
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
	e, err := prepare(p)
	if err != nil {
		return err
	}
	_, err = insert([]entry{e})
	return err
}

// entry is a validated protocol ready to enter the registry: its
// canonical name and a detached master copy, so the registrant cannot
// alias it either.
type entry struct {
	key    string
	master *fsm.Protocol
}

// prepare validates p and detaches its registry entry.
func prepare(p *fsm.Protocol) (entry, error) {
	if err := p.Validate(); err != nil {
		return entry{}, fmt.Errorf("protocols: registering %q: %w", p.Name, err)
	}
	key := canonicalName(p.Name)
	if key == "" {
		return entry{}, fmt.Errorf("protocols: protocol has no name")
	}
	return entry{key, p.Clone()}, nil
}

// insert registers every entry under one lock, or none of them when a
// name is already taken; it then returns that entry's index with the
// error. The entries' own names are distinct: loadFS's come from distinct
// file names.
func insert(es []entry) (int, error) {
	mu.Lock()
	defer mu.Unlock()
	for i, e := range es {
		if _, taken := registry[e.key]; taken {
			return i, fmt.Errorf("protocols: name %q already registered", e.key)
		}
	}
	for _, e := range es {
		registry[e.key] = e.master
	}
	return -1, nil
}

// LoadDir registers every ccpsl specification (*.ccpsl) in dir, returning
// the canonical names added, sorted. Each file goes through the same
// checks as the built-ins in specs/, and any unreadable, unparsable,
// misnamed or conflicting file fails the load with an error naming it.
// The load is all or nothing: a failed one registers no protocol, so it
// can be retried once the directory is mended.
func LoadDir(dir string) ([]string, error) {
	return loadFS(os.DirFS(dir), dir)
}

// loadFS parses every *.ccpsl file at the top of fsys, then registers
// them all at once; dir names fsys in errors. Files are checked in name
// order, so which bad file fails the load is deterministic. A file must
// be named after its protocol's canonical name. A *.ccfsm file fails the
// load, so a directory still holding the removed binary format is refused
// rather than loaded short of protocols.
func loadFS(fsys fs.FS, dir string) ([]string, error) {
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return nil, fmt.Errorf("protocols: reading %s: %w", dir, err)
	}
	var (
		loaded []entry
		paths  []string
	)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, name)
		if strings.HasSuffix(name, ".ccfsm") {
			return nil, fmt.Errorf("protocols: %s: the compiled .ccfsm format is no longer supported; "+
				"replace the file with the protocol's ccpsl specification", path)
		}
		key, ok := strings.CutSuffix(name, ".ccpsl")
		if !ok {
			continue
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return nil, fmt.Errorf("protocols: reading %s: %w", path, err)
		}
		p, err := ccpsl.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("protocols: %s: %w", path, err)
		}
		if key != canonicalName(p.Name) {
			return nil, fmt.Errorf("protocols: %s defines %q, want a file named %s.ccpsl",
				path, p.Name, canonicalName(p.Name))
		}
		ent, err := prepare(p)
		if err != nil {
			return nil, fmt.Errorf("protocols: loading %s: %w", path, err)
		}
		loaded = append(loaded, ent)
		paths = append(paths, path)
	}
	if i, err := insert(loaded); err != nil {
		return nil, fmt.Errorf("protocols: loading %s: %w", paths[i], err)
	}
	var added []string
	for _, e := range loaded {
		added = append(added, e.key)
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
