package analysis

import (
	"strings"
	"testing"
)

const cgPkg = "predis/tools/analyzers/testdata/callgraph"

// loadCallgraphFixture builds the Program over the callgraph fixture.
func loadCallgraphFixture(t *testing.T) *Program {
	t.Helper()
	pkgs, err := Load("../testdata", "./callgraph")
	if err != nil {
		t.Fatalf("loading callgraph fixture: %v", err)
	}
	return NewProgram(pkgs)
}

func mustNode(t *testing.T, p *Program, key string) *FuncNode {
	t.Helper()
	n := p.Node(key)
	if n == nil {
		var have []string
		for _, o := range p.Nodes() {
			have = append(have, o.Key)
		}
		t.Fatalf("node %q missing; have:\n  %s", key, strings.Join(have, "\n  "))
	}
	return n
}

func TestCallGraphInterfaceDispatchCHA(t *testing.T) {
	p := loadCallgraphFixture(t)
	n := mustNode(t, p, cgPkg+".viaIface")

	var iface *CallSite
	for _, c := range n.Calls {
		if c.Kind == CallIface && c.Name == "tick" {
			iface = c
		}
	}
	if iface == nil {
		t.Fatalf("viaIface has no interface call site; calls: %+v", n.Calls)
	}
	want := []string{
		"(" + cgPkg + ".fixedTicker).tick",
		"(" + cgPkg + ".wallTicker).tick",
	}
	if len(iface.Targets) != len(want) {
		t.Fatalf("CHA targets = %v, want %v", iface.Targets, want)
	}
	for i, w := range want {
		if iface.Targets[i] != w {
			t.Errorf("CHA target[%d] = %q, want %q", i, iface.Targets[i], w)
		}
	}

	// Reverse index: both implementations list viaIface as a caller.
	for _, impl := range want {
		found := false
		for _, c := range p.CallersOf(impl) {
			if c.Key == n.Key {
				found = true
			}
		}
		if !found {
			t.Errorf("CallersOf(%s) does not include viaIface", impl)
		}
	}
}

func TestCallGraphMethodValueBinding(t *testing.T) {
	p := loadCallgraphFixture(t)
	n := mustNode(t, p, cgPkg+".viaMethodValue")

	var bound *CallSite
	for _, c := range n.Calls {
		if c.Kind == CallBound {
			bound = c
		}
	}
	if bound == nil {
		t.Fatalf("viaMethodValue has no bound call site; calls: %+v", n.Calls)
	}
	wantTarget := "(" + cgPkg + ".wallTicker).tick"
	if len(bound.Targets) != 1 || bound.Targets[0] != wantTarget {
		t.Fatalf("bound targets = %v, want [%s]", bound.Targets, wantTarget)
	}

	// The binding is also a method value allocation (boxes the receiver).
	foundMV := false
	for _, a := range n.Allocs {
		if a.Kind == AllocMethodValue {
			foundMV = true
		}
	}
	if !foundMV {
		t.Errorf("viaMethodValue records no method-value allocation; allocs: %+v", n.Allocs)
	}
}

func TestCallGraphClosureCapturesReceiver(t *testing.T) {
	p := loadCallgraphFixture(t)
	n := mustNode(t, p, "(*"+cgPkg+".holder).viaClosure")

	// The literal's call to h.t.tick merges into viaClosure.
	wantCallee := "(" + cgPkg + ".wallTicker).tick"
	found := false
	for _, c := range n.Calls {
		for _, tgt := range c.Targets {
			if tgt == wantCallee {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("closure body call not merged into viaClosure; calls: %+v", n.Calls)
	}

	// The capture of h is an allocation site.
	foundClosure := false
	for _, a := range n.Allocs {
		if a.Kind == AllocClosure && strings.Contains(a.Detail, "h") {
			foundClosure = true
		}
	}
	if !foundClosure {
		t.Errorf("receiver capture not recorded as closure allocation; allocs: %+v", n.Allocs)
	}
}

func TestTaintFixpointTerminatesOnRecursion(t *testing.T) {
	p := loadCallgraphFixture(t)
	wall := p.Propagate(DirectWallClock, StandardFollow)

	for _, fn := range []string{"pingPong", "pong"} {
		n := mustNode(t, p, cgPkg+"."+fn)
		if !wall.Tainted(n) {
			t.Errorf("%s not tainted through the recursive cycle", fn)
		}
		if chain := wall.Chain(n); chain == "" {
			t.Errorf("%s has an empty witness chain", fn)
		}
	}
}

func TestTaintThroughIfaceAndBoundEdges(t *testing.T) {
	p := loadCallgraphFixture(t)
	wall := p.Propagate(DirectWallClock, StandardFollow)

	for _, fn := range []string{"viaIface", "viaMethodValue"} {
		if !wall.Tainted(mustNode(t, p, cgPkg+"."+fn)) {
			t.Errorf("%s not tainted", fn)
		}
	}
	if !wall.Tainted(mustNode(t, p, "(*"+cgPkg+".holder).viaClosure")) {
		t.Errorf("viaClosure not tainted through merged literal")
	}
	if wall.Tainted(mustNode(t, p, cgPkg+".clean")) {
		t.Errorf("clean tainted: static call to fixedTicker.tick must not reach the clock")
	}
}
