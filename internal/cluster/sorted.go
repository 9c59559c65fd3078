package cluster

import (
	"slices"
	"strings"
)

// The cluster layer walks several sets in name order on every tick — the
// in-process cluster's tasks, a node's catalog and owned tasks, the
// replicator's schedules and in-flight frames, the membership table — so
// that what happens in a tick never depends on map iteration order. Each
// is a slice kept sorted by these three helpers: a binary-search insert or
// delete where the set changes, instead of collecting and sorting map keys
// where it is read.

// nameIndex is the position of name in s, which is sorted by key, and
// whether it is present; when absent the position is where it belongs.
func nameIndex[T any](s []T, name string, key func(T) string) (int, bool) {
	return slices.BinarySearchFunc(s, name, func(e T, name string) int {
		return strings.Compare(key(e), name)
	})
}

// insertByName inserts v into s at its sorted position. The caller
// guarantees no element with the same key is present.
func insertByName[T any](s []T, v T, key func(T) string) []T {
	i, _ := nameIndex(s, key(v), key)
	return slices.Insert(s, i, v)
}

// deleteByName removes the element keyed name from s, if present.
func deleteByName[T any](s []T, name string, key func(T) string) []T {
	if i, ok := nameIndex(s, name, key); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
}
