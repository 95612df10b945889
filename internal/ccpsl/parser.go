package ccpsl

import (
	"fmt"
	"slices"

	"repro/internal/fsm"
)

// Parse compiles a ccpsl specification into a validated protocol.
func Parse(src string) (*fsm.Protocol, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	pr := &parser{toks: toks}
	p, err := pr.spec()
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("ccpsl: %w", err)
	}
	return p, nil
}

type parser struct {
	toks []token
	pos  int
}

func (pr *parser) peek() token { return pr.toks[pr.pos] }

func (pr *parser) next() token {
	t := pr.toks[pr.pos]
	if t.kind != tokEOF {
		pr.pos++
	}
	return t
}

func (pr *parser) skipNewlines() {
	for pr.peek().kind == tokNewline {
		pr.pos++
	}
}

func (pr *parser) expect(k tokenKind) (token, error) {
	t := pr.next()
	if t.kind != k {
		return t, errf(t.line, "expected %v, found %v %q", k, t.kind, t.text)
	}
	return t, nil
}

func (pr *parser) keyword(word string) error {
	t := pr.next()
	if t.kind != tokIdent || t.text != word {
		return errf(t.line, "expected %q, found %q", word, t.text)
	}
	return nil
}

func (pr *parser) ident() (token, error) {
	t := pr.next()
	if t.kind != tokIdent {
		return t, errf(t.line, "expected identifier, found %v %q", t.kind, t.text)
	}
	return t, nil
}

// identList parses IDENT { "," IDENT }.
func (pr *parser) identList() ([]token, error) {
	var out []token
	for {
		t, err := pr.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if pr.peek().kind != tokComma {
			return out, nil
		}
		pr.next()
	}
}

func (pr *parser) spec() (*fsm.Protocol, error) {
	pr.skipNewlines()
	if err := pr.keyword("protocol"); err != nil {
		return nil, err
	}
	nameTok, err := pr.ident()
	if err != nil {
		return nil, err
	}
	if _, err := pr.expect(tokNewline); err != nil {
		return nil, err
	}

	p := &fsm.Protocol{
		Name: nameTok.text,
		Ops:  []fsm.Op{fsm.OpRead, fsm.OpWrite, fsm.OpReplace},
	}

	pr.skipNewlines()
	// Optional characteristic and ops declarations, in either order.
	for pr.peek().kind == tokIdent && (pr.peek().text == "characteristic" || pr.peek().text == "ops") {
		t := pr.next()
		switch t.text {
		case "characteristic":
			v, err := pr.ident()
			if err != nil {
				return nil, err
			}
			switch v.text {
			case "null":
				p.Characteristic = fsm.CharNull
			case "sharing":
				p.Characteristic = fsm.CharSharing
			default:
				return nil, errf(v.line, "characteristic must be \"null\" or \"sharing\", found %q", v.text)
			}
		case "ops":
			p.Ops = nil
			for pr.peek().kind == tokIdent {
				p.Ops = append(p.Ops, fsm.Op(pr.next().text))
			}
			if len(p.Ops) == 0 {
				return nil, errf(t.line, "ops declaration needs at least one operation")
			}
		}
		if _, err := pr.expect(tokNewline); err != nil {
			return nil, err
		}
		pr.skipNewlines()
	}

	if err := pr.statesBlock(p); err != nil {
		return nil, err
	}

	pr.skipNewlines()
	for pr.peek().kind != tokEOF {
		if err := pr.ruleBlock(p); err != nil {
			return nil, err
		}
		pr.skipNewlines()
	}
	return p, nil
}

func (pr *parser) statesBlock(p *fsm.Protocol) error {
	if err := pr.keyword("states"); err != nil {
		return err
	}
	if _, err := pr.expect(tokLBrace); err != nil {
		return err
	}
	haveInitial := false
	for {
		pr.skipNewlines()
		if pr.peek().kind == tokRBrace {
			pr.next()
			break
		}
		nameTok, err := pr.ident()
		if err != nil {
			return err
		}
		st := fsm.State(nameTok.text)
		p.States = append(p.States, st)
		var lineFlags []string // the invariant flags given on this line
		for pr.peek().kind == tokIdent {
			flag := pr.next()
			var set *[]fsm.State
			var setName string
			switch flag.text {
			case "initial":
				if haveInitial {
					return errf(flag.line, "duplicate initial state %q", nameTok.text)
				}
				haveInitial = true
				p.Initial = st
			case "valid":
				set, setName = &p.Inv.ValidCopy, "ValidCopy"
			case "readable":
				set, setName = &p.Inv.Readable, "Readable"
			case "exclusive":
				set, setName = &p.Inv.Exclusive, "Exclusive"
			case "owner":
				set, setName = &p.Inv.Owners, "Owners"
			case "clean":
				set, setName = &p.Inv.CleanShared, "CleanShared"
			default:
				return errf(flag.line, "unknown state flag %q (want %s)", flag.text,
					quoteList([]string{"initial", "valid", "readable", "exclusive", "owner", "clean"}))
			}
			if set == nil {
				continue
			}
			if slices.Contains(lineFlags, flag.text) {
				return &Error{Line: flag.line, Msg: fmt.Sprintf("state %s: flag %q given twice", st, flag.text),
					Err: &fsm.DuplicateInvariantError{Protocol: p.Name, Set: setName, State: st}}
			}
			lineFlags = append(lineFlags, flag.text)
			*set = append(*set, st)
		}
		if _, err := pr.expect(tokNewline); err != nil {
			return err
		}
	}
	if !haveInitial {
		return errf(pr.peek().line, "no state is marked initial")
	}
	return nil
}

func (pr *parser) ruleBlock(p *fsm.Protocol) error {
	if err := pr.keyword("rule"); err != nil {
		return err
	}
	nameTok, err := pr.ident()
	if err != nil {
		return err
	}
	if _, err := pr.expect(tokLBrace); err != nil {
		return err
	}
	r := fsm.Rule{Name: nameTok.text, Guard: fsm.Always()}
	haveFrom, haveNext, haveData := false, false, false

	for {
		pr.skipNewlines()
		if pr.peek().kind == tokRBrace {
			pr.next()
			break
		}
		clause, err := pr.ident()
		if err != nil {
			return err
		}
		switch clause.text {
		case "from":
			if haveFrom {
				return errf(clause.line, "rule %s: duplicate from clause", r.Name)
			}
			haveFrom = true
			st, err := pr.ident()
			if err != nil {
				return err
			}
			r.From = fsm.State(st.text)
			if err := pr.keyword("on"); err != nil {
				return err
			}
			op, err := pr.ident()
			if err != nil {
				return err
			}
			r.On = fsm.Op(op.text)
			if pr.peek().kind == tokIdent && pr.peek().text == "when" {
				pr.next()
				kindTok, err := pr.ident()
				if err != nil {
					return err
				}
				var kind fsm.GuardKind
				switch kindTok.text {
				case "any-other":
					kind = fsm.GuardAnyOther
				case "no-other":
					kind = fsm.GuardNoOther
				default:
					return errf(kindTok.line, "guard must be \"any-other\" or \"no-other\", found %q", kindTok.text)
				}
				list, err := pr.identList()
				if err != nil {
					return err
				}
				g := fsm.Guard{Kind: kind}
				for _, t := range list {
					g.States = append(g.States, fsm.State(t.text))
				}
				r.Guard = g
			}
		case "next":
			if haveNext {
				return errf(clause.line, "rule %s: duplicate next clause", r.Name)
			}
			haveNext = true
			st, err := pr.ident()
			if err != nil {
				return err
			}
			r.Next = fsm.State(st.text)
		case "observe":
			if r.Observe == nil {
				r.Observe = make(map[fsm.State]fsm.State)
			}
			for {
				from, err := pr.ident()
				if err != nil {
					return err
				}
				if _, err := pr.expect(tokArrow); err != nil {
					return err
				}
				to, err := pr.ident()
				if err != nil {
					return err
				}
				if _, dup := r.Observe[fsm.State(from.text)]; dup {
					return errf(from.line, "rule %s: duplicate observe source %q", r.Name, from.text)
				}
				r.Observe[fsm.State(from.text)] = fsm.State(to.text)
				if pr.peek().kind != tokComma {
					break
				}
				pr.next()
			}
		case "data":
			if haveData {
				return errf(clause.line, "rule %s: duplicate data clause", r.Name)
			}
			haveData = true
			if err := pr.dataClause(&r); err != nil {
				return err
			}
		default:
			return errf(clause.line, "unknown clause %q in rule %s (want %s)", clause.text, r.Name,
				quoteList([]string{"from", "next", "observe", "data"}))
		}
		if _, err := pr.expect(tokNewline); err != nil {
			return err
		}
	}
	if !haveFrom {
		return errf(nameTok.line, "rule %s: missing from clause", r.Name)
	}
	if !haveNext {
		return errf(nameTok.line, "rule %s: missing next clause", r.Name)
	}
	if !haveData {
		return errf(nameTok.line, "rule %s: missing data clause", r.Name)
	}
	p.Rules = append(p.Rules, r)
	return nil
}

func (pr *parser) dataClause(r *fsm.Rule) error {
	src, err := pr.ident()
	if err != nil {
		return err
	}
	switch src.text {
	case "none":
		r.Data.Source = fsm.SrcNone
	case "keep":
		r.Data.Source = fsm.SrcKeep
	case "memory":
		r.Data.Source = fsm.SrcMemory
	case "from-cache":
		r.Data.Source = fsm.SrcCache
		for pr.peek().kind == tokIdent && !isDataFlag(pr.peek().text) {
			r.Data.Suppliers = append(r.Data.Suppliers, fsm.State(pr.next().text))
			if pr.peek().kind == tokComma {
				pr.next() // commas between suppliers are optional
			}
		}
		if len(r.Data.Suppliers) == 0 {
			return errf(src.line, "rule %s: from-cache needs at least one supplier state", r.Name)
		}
	default:
		return errf(src.line, "data source must be one of %s, found %q",
			quoteList([]string{"none", "keep", "memory", "from-cache"}), src.text)
	}
	for pr.peek().kind == tokIdent {
		flag := pr.next()
		switch flag.text {
		case "store":
			r.Data.Store = true
		case "write-through":
			r.Data.WriteThrough = true
		case "update-sharers":
			r.Data.UpdateSharers = true
		case "writeback-supplier":
			r.Data.SupplierWriteBack = true
		case "writeback-self":
			r.Data.WriteBackSelf = true
		case "drop":
			r.Data.DropSelf = true
		case "spin":
			r.Data.Spin = true
		default:
			return errf(flag.line, "unknown data flag %q (want %s)", flag.text,
				quoteList([]string{"store", "write-through", "update-sharers", "writeback-supplier", "writeback-self", "drop", "spin"}))
		}
	}
	return nil
}

func isDataFlag(word string) bool {
	switch word {
	case "store", "write-through", "update-sharers", "writeback-supplier", "writeback-self", "drop", "spin":
		return true
	}
	return false
}
