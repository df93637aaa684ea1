package world

import (
	"net/netip"
	"time"
)

// ResponsiveNTP returns every scan-reachable NTP-client device — the
// population whose capture the collection driver guarantees (their sync
// cadence over four weeks makes at least one hit on a vantage server
// overwhelmingly likely; see DESIGN.md).
func (w *World) ResponsiveNTP() []*Device {
	var out []*Device
	for _, d := range w.reachable {
		if d.role == RoleResponsive && d.Profile.NTPClient {
			out = append(out, d)
		}
	}
	return out
}

// AddrsDuring enumerates the distinct addresses a device holds across
// the window [start, start+dur), in epoch order. Used by tests and the
// R&L-era comparison run.
func (w *World) AddrsDuring(d *Device, start time.Time, dur time.Duration) []netip.Addr {
	first := d.EpochAt(start, w.Cfg.Start)
	last := d.EpochAt(start.Add(dur-time.Nanosecond), w.Cfg.Start)
	var out []netip.Addr
	for e := first; e <= last; e++ {
		out = append(out, w.AddrAt(d, e))
	}
	return out
}
