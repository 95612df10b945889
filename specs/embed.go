// Package specs holds the ccpsl specifications of the built-in protocols.
// Each *.ccpsl file here is the only definition of its protocol:
// internal/protocols parses every one at package init and registers it
// under its file name, so the library, the CLIs (`ccverify -spec
// specs/illinois.ccpsl`) and the tests all read the same text.
package specs

import "embed"

// FS holds every built-in specification, named <canonical-name>.ccpsl.
//
//go:embed *.ccpsl
var FS embed.FS
