// The resident-model snapshot: every request path — buffered scan batch,
// streaming scan, attack-oracle query, health probe — resolves the model set
// through one atomic load of the registry's current *engine.Set, an immutable
// generation. The registry's cell is the only one: a hot reload swaps it and
// nothing else. A handler that loads the snapshot keeps it for the whole
// request, so a reload landing mid-flight can never mix generations inside
// one response: in-flight work finishes on the old set while new work sees
// the new one, with no locks on the hot path.
package server

import (
	"mpass/internal/detect"
	"mpass/internal/engine"
)

// snap loads the active model generation. Callers hold the returned pointer
// for the whole request so one request never spans a swap.
func (s *Server) snap() *engine.Set { return s.registry.Current() }

// streamers resolves set's streaming scorers in set order, looking through
// wrapper drivers, or returns nil when any member cannot stream — every scan
// then takes the buffered pipeline.
func streamers(set *engine.Set) []detect.Streamer {
	drivers := set.Drivers()
	out := make([]detect.Streamer, len(drivers))
	for i, d := range drivers {
		st, ok := engine.StreamerOf(d)
		if !ok {
			return nil
		}
		out[i] = st
	}
	return out
}

// engineHealth snapshots per-engine name/version/health for /healthz and the
// reload response, in set order.
func engineHealth(set *engine.Set) []EngineHealth {
	drivers := set.Drivers()
	out := make([]EngineHealth, len(drivers))
	for i, d := range drivers {
		out[i] = EngineHealth{Name: d.Name(), Version: d.Version(), Healthy: true}
		if err := d.Health(); err != nil {
			out[i].Healthy = false
			out[i].Error = err.Error()
		}
	}
	return out
}
