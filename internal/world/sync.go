package world

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
