package protocols

import (
	"repro/internal/fsm"
	"repro/specs"
)

// Extra operations and state of Lock-MSI (specs/lock-msi.ccpsl), named for
// the trace, replay and simulator code that drives locks.
const (
	// OpAcquire is a test-and-set lock acquire; OpRelease releases it.
	OpAcquire fsm.Op    = "L"
	OpRelease fsm.Op    = "U"
	LkLocked  fsm.State = "Locked"
)

// The built-in protocols are the specifications embedded from specs/,
// loaded once here. A spec that fails to load is a bug in the shipped
// files, so it panics rather than surfacing as a runtime condition.
func init() {
	if _, err := loadFS(specs.FS, "specs"); err != nil {
		panic(err)
	}
}

// builtin returns a fresh instance of a registered built-in.
func builtin(key string) *fsm.Protocol {
	mu.RLock()
	defer mu.RUnlock()
	return registry[key].Clone()
}

// Illinois returns the Illinois protocol of paper Section 2.3 (specs/illinois.ccpsl).
func Illinois() *fsm.Protocol { return builtin("illinois") }

// WriteOnce returns Goodman's Write-Once protocol (specs/write-once.ccpsl).
func WriteOnce() *fsm.Protocol { return builtin("write-once") }

// WriteThrough returns the write-through-with-invalidate scheme (specs/write-through.ccpsl).
func WriteThrough() *fsm.Protocol { return builtin("write-through") }

// Synapse returns the Synapse N+1 protocol (specs/synapse.ccpsl).
func Synapse() *fsm.Protocol { return builtin("synapse") }

// Berkeley returns the Berkeley ownership protocol (specs/berkeley.ccpsl).
func Berkeley() *fsm.Protocol { return builtin("berkeley") }

// Firefly returns the DEC Firefly write-broadcast protocol (specs/firefly.ccpsl).
func Firefly() *fsm.Protocol { return builtin("firefly") }

// Dragon returns the Xerox Dragon write-update protocol (specs/dragon.ccpsl).
func Dragon() *fsm.Protocol { return builtin("dragon") }

// MSI returns the three-state write-invalidate baseline (specs/msi.ccpsl).
func MSI() *fsm.Protocol { return builtin("msi") }

// MESI returns Illinois with memory servicing clean misses (specs/mesi.ccpsl).
func MESI() *fsm.Protocol { return builtin("mesi") }

// MOESI returns MESI with Berkeley-style dirty sharing (specs/moesi.ccpsl).
func MOESI() *fsm.Protocol { return builtin("moesi") }

// MESIF returns MESI with a designated Forward responder (specs/mesif.ccpsl).
func MESIF() *fsm.Protocol { return builtin("mesif") }

// LockMSI returns MSI with a Locked state and acquire/release (specs/lock-msi.ccpsl).
func LockMSI() *fsm.Protocol { return builtin("lock-msi") }
