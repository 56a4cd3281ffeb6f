// Package topology is the paper's P:ppn notation for the shape of a
// Cashmere cluster: how many SMP nodes it has and how many processors
// each node carries.
//
// The paper evaluates one fixed platform — eight 4-processor
// AlphaServer nodes ("32:4") — but nothing in the protocol layer
// assumes that shape: internal/core takes it from core.Config's Nodes
// and ProcsPerNode, internal/bench sweeps over Specs, and the cmd/ flag
// surface parses them with Parse. A cluster's costs, interconnect
// fabric included, live in its costs.Model, not here.
package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// Grammar documents the topology string syntax shared by every flag
// that accepts a topology (-trace-cell, -scaling): the paper's notation
// "procs:procsPerNode", where procs is the total processor count and
// must be an exact multiple of procsPerNode.
const Grammar = `"procs:procsPerNode" — total processors, a colon, and processors per SMP node; procs must be a positive multiple of procsPerNode (e.g. "32:4" is 8 nodes of 4 processors)`

// Spec is a cluster shape. The paper's platform is 8 nodes x 4
// processors ("32:4").
type Spec struct {
	Nodes        int
	ProcsPerNode int
}

// New returns the Spec with the given shape.
func New(nodes, procsPerNode int) Spec {
	return Spec{Nodes: nodes, ProcsPerNode: procsPerNode}
}

// Procs returns the total processor count.
func (s Spec) Procs() int { return s.Nodes * s.ProcsPerNode }

// String renders the paper's P:ppn notation, e.g. "32:4".
func (s Spec) String() string {
	return fmt.Sprintf("%d:%d", s.Procs(), s.ProcsPerNode)
}

// Parse parses the shared topology grammar (see Grammar): the paper's
// "procs:procsPerNode" notation, e.g. "32:4" for 8 nodes of 4
// processors. Every malformed input yields the same error, which quotes
// the grammar.
func Parse(s string) (Spec, error) {
	bad := func() (Spec, error) {
		return Spec{}, fmt.Errorf("topology: cannot parse %q: want %s", s, Grammar)
	}
	procsStr, ppnStr, ok := strings.Cut(s, ":")
	if !ok {
		return bad()
	}
	procs, err := strconv.Atoi(procsStr)
	if err != nil {
		return bad()
	}
	ppn, err := strconv.Atoi(ppnStr)
	if err != nil {
		return bad()
	}
	if procs <= 0 || ppn <= 0 || procs%ppn != 0 {
		return bad()
	}
	return New(procs/ppn, ppn), nil
}
