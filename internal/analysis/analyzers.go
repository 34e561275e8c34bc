// Package analysis aggregates the yancvet analyzer suite: the static
// checks that turn the VFS locking discipline (DESIGN.md §8), the
// clock-injection convention, and the error-handling contracts into
// compile-time law. cmd/yancvet runs them all; see DESIGN.md §11 for
// the rule-to-analyzer map.
package analysis

import (
	"golang.org/x/tools/go/analysis"

	"yanc/internal/analysis/clockban"
	"yanc/internal/analysis/errdrop"
	"yanc/internal/analysis/hotalloc"
	"yanc/internal/analysis/lockorder"
	"yanc/internal/analysis/snapshotpub"
	"yanc/internal/analysis/txescape"
)

// All returns the full yancvet suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockorder.Analyzer,
		snapshotpub.Analyzer,
		clockban.Analyzer,
		errdrop.Analyzer,
		hotalloc.Analyzer,
		txescape.Analyzer,
	}
}
