package apps

import (
	"cashmere/internal/core"
	"cashmere/internal/costs"
)

// defaultCosts returns the default cost model for tests.
func defaultCosts() costs.Model { return costs.Default() }

// small2x2 is a 2x2 Cashmere-2L cluster whose pages are small enough
// for the tiny test problems to span several.
var small2x2 = core.Config{Nodes: 2, ProcsPerNode: 2, PageWords: 64}
