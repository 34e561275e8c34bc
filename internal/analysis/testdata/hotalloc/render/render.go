// Package render is the downstream side of the cross-package contract:
// AppendName carries the //yancvet:hotalloc annotation and therefore
// exports the AllocFree fact; Format does not. The parent package calls
// both from a hot path, and the analyzer must accept the first and flag
// the second purely from the imported facts.
package render

// AppendName renders name into caller-provided storage, allocation-free.
//
//yancvet:hotalloc
func AppendName(dst []byte, name string) []byte {
	dst = append(dst, name...)
	return dst
}

// Format allocates freely; it carries no fact, so hot callers in other
// packages must not call it.
func Format(name string) string {
	return "name=" + name
}

// Names is generic: a call through an instantiation names a method object
// of its own, and the fact sits on the declaration's.
type Names[T any] struct{ n []T }

// Add appends to the receiver's storage, allocation-free once grown.
//
//yancvet:hotalloc
func (s *Names[T]) Add(v T) { s.n = append(s.n, v) }
