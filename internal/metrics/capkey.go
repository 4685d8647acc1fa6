package metrics

// OverflowKey is the bucket a capped breakdown folds traffic into once it
// tracks its maximum of distinct keys.
const OverflowKey = "_other"

// CapKey is the one "first max keys, then OverflowKey" rule: it returns the
// key under which m accounts for key — key itself while m already tracks it
// or still has room, OverflowKey once m holds max keys. Breakdowns keyed by
// strings a client (model names) or a deployment (replica IDs, tenant
// names) chooses stay bounded at max+1 entries this way instead of growing
// with every name ever seen.
func CapKey[V any](m map[string]V, max int, key string) string {
	if _, ok := m[key]; !ok && len(m) >= max {
		return OverflowKey
	}
	return key
}

// tracked returns the sink *m keeps for key under CapKey, creating the map
// and the sink as needed; the caller holds the lock that guards *m.
func tracked[V any](m *map[string]*V, max int, key string) *V {
	if *m == nil {
		*m = make(map[string]*V)
	}
	key = CapKey(*m, max, key)
	v := (*m)[key]
	if v == nil {
		v = new(V)
		(*m)[key] = v
	}
	return v
}

// copyMap is a live breakdown as its snapshot: every sink through snap, and
// nil for an empty breakdown so the JSON field is omitted.
func copyMap[L, S any](m map[string]L, snap func(L) S) map[string]S {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]S, len(m))
	for k, v := range m {
		out[k] = snap(v)
	}
	return out
}
