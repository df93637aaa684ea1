package world

import (
	"ntpscan/internal/asn"
	"ntpscan/internal/oui"
)

// AddrMode selects how a device forms its interface identifiers, which
// drives the Figure 1 IID-class distribution.
type AddrMode int

const (
	// AddrEUI64 embeds the device MAC (modified EUI-64).
	AddrEUI64 AddrMode = iota
	// AddrPrivacy uses fully random identifiers, re-randomised per
	// address epoch (RFC 4941 temporary addresses).
	AddrPrivacy
	// AddrStructuredLastByte uses ::1-style manual numbering.
	AddrStructuredLastByte
	// AddrStructuredTwoBytes uses identifiers with only the last two
	// bytes set.
	AddrStructuredTwoBytes
	// AddrLowEntropy uses repeated-byte patterns (embedded vendors that
	// derive IIDs from short serials).
	AddrLowEntropy
)

// ServiceKind enumerates the application services a profile can expose.
type ServiceKind int

const (
	SvcHTTP ServiceKind = iota
	SvcHTTPS
	SvcSSH
	SvcMQTT
	SvcMQTTS
	SvcAMQP
	SvcAMQPS
	SvcCoAP
)

// Region tags bias a profile's population toward country groups.
type Region int

const (
	// RegionGlobal spreads by overall country population.
	RegionGlobal Region = iota
	// RegionEurope biases toward European countries (AVM's market).
	RegionEurope
	// RegionAsia biases toward the Asian mobile-heavy countries.
	RegionAsia
	// RegionAmericas biases toward the Americas.
	RegionAmericas
)

// SSHOS describes an SSH profile's operating system banner material.
type SSHOS struct {
	// ID is the full identification template, e.g.
	// "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u" — the patch revision is
	// appended from the device's PatchRev.
	IDBase string
	// MaxRev is the current (up-to-date) patch revision for the
	// release; devices carry revisions in [0, MaxRev].
	MaxRev int
	// NoPatch marks banners exposing no patch revision (FreeBSD-style
	// date suffixes are appended verbatim instead).
	NoPatch bool
}

// Profile is one device/deployment model. Counts are full-scale device
// populations calibrated against the paper's tables; the builder
// multiplies them by the configured scales.
type Profile struct {
	Name  string
	ASTyp asn.Type // the AS type this deployment predominantly lives in
	// Region biases country placement.
	Region Region

	// CountResponsive is the full-scale number of scan-reachable
	// devices of this profile in the NTP-visible population
	// (calibrated to the paper's "Our Data" columns).
	CountResponsive int
	// CountHitlistOnly is the additional full-scale population visible
	// only through hitlist-style sources (servers, infrastructure).
	CountHitlistOnly int
	// CountAddrOnly is the full-scale population of devices that only
	// contribute captured addresses (firewalled eyeball gear: phones,
	// speakers, TVs, non-exposed CPE). Scaled by AddrScale, not
	// DeviceScale.
	CountAddrOnly int

	// NTPClient devices synchronise against the pool, exposing their
	// addresses to capture servers.
	NTPClient bool
	// SyncWeight is the relative sync frequency (events per device per
	// logical day).
	SyncWeight float64
	// DNSVisible is the probability a device of this profile has a
	// DNS/CT footprint and therefore appears in hitlist seeds.
	DNSVisible float64

	// AddrMode selects IID construction; PrefixEpochs is how many
	// address epochs a device sees during the collection window
	// (dynamic prefixes; 1 = static).
	AddrMode     AddrMode
	PrefixEpochs int

	// HasUniversalMAC devices embed a globally unique MAC from Vendor's
	// OUI space; otherwise EUI-64-shaped devices use locally
	// administered randomised MACs.
	HasUniversalMAC bool
	Vendor          string // OUI vendor name (when HasUniversalMAC)

	// TitleChoices, when non-empty, draws each device's page title
	// from a weighted list instead of HTTPTitle (mixed hosting
	// populations: default pages, placeholders, panels).
	TitleChoices []WeightedTitle

	// Services and application-layer behaviour.
	Services     []ServiceKind
	Filtered     bool    // firewall drops probes to closed ports
	HTTPTitle    string  // page title; "" = titleless page
	TitleNoise   bool    // append a per-device version suffix to the title
	HTTPStatus   int     // response status (default 200)
	RequireHost  bool    // virtual-hosting front end (404 without Host)
	HostErrTitle string  // title of the no-Host error page
	RequireSNI   bool    // TLS fails without SNI (CDN behaviour)
	TLSProb      float64 // share of devices with the TLS variant enabled
	SelfSigned   bool    // certificate self-signed (consumer gear)

	SSH *SSHOS // nil = no SSH

	// MQTT/AMQP access control: probability that auth is enforced.
	AuthProb float64
	// KeyReuseProb is the chance a device draws its key/cert from a
	// small shared pool (container images, §6).
	KeyReuseProb float64
	// KeyReusePoolSize bounds the shared pool (distinct reused keys).
	KeyReusePoolSize int

	// CoAPResources advertised via /.well-known/core.
	CoAPResources []string

	// OutdatedBias skews PatchRev downward: 0 = uniform up-to-date,
	// larger = more outdated devices (end-user gear).
	OutdatedBias float64
}

// WeightedTitle is one entry of a TitleChoices list.
type WeightedTitle struct {
	Title string
	W     float64
}

// HasService reports whether the profile exposes k.
func (p *Profile) HasService(k ServiceKind) bool {
	for _, s := range p.Services {
		if s == k {
			return true
		}
	}
	return false
}

// Profiles returns the device catalog. Full-scale counts are calibrated
// so the measurement pipeline re-derives the paper's Tables 2/3 shapes;
// see DESIGN.md for the mapping.
func Profiles() []*Profile {
	return []*Profile{
		// --- Consumer CPE: the headline finding (§4.3.1). ---
		{
			Name: "fritzbox", ASTyp: asn.TypeCableDSLISP, Region: RegionEurope,
			CountResponsive: 257195, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 8, DNSVisible: 0.139, // MyFRITZ dyndns names
			AddrMode: AddrEUI64, PrefixEpochs: 4,
			HasUniversalMAC: true, Vendor: oui.VendorAVMMarketing,
			Services:  []ServiceKind{SvcHTTP, SvcHTTPS},
			HTTPTitle: "FRITZ!Box", TLSProb: 0.92, SelfSigned: true,
			Filtered: true, OutdatedBias: 1.5,
		},
		{
			Name: "fritz-repeater", ASTyp: asn.TypeCableDSLISP, Region: RegionEurope,
			CountResponsive: 14751, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 8, DNSVisible: 0.0005,
			AddrMode: AddrEUI64, PrefixEpochs: 4,
			HasUniversalMAC: true, Vendor: oui.VendorAVM,
			Services:  []ServiceKind{SvcHTTP, SvcHTTPS},
			HTTPTitle: "FRITZ!Repeater 6000", TLSProb: 0.9, SelfSigned: true,
			Filtered: true, OutdatedBias: 1.5,
		},
		{
			Name: "fritz-powerline", ASTyp: asn.TypeCableDSLISP, Region: RegionEurope,
			CountResponsive: 1480, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 8, DNSVisible: 0,
			AddrMode: AddrEUI64, PrefixEpochs: 4,
			HasUniversalMAC: true, Vendor: oui.VendorAVM,
			Services:  []ServiceKind{SvcHTTP, SvcHTTPS},
			HTTPTitle: "FRITZ!Powerline 1260", TLSProb: 0.9, SelfSigned: true,
			Filtered: true, OutdatedBias: 1.5,
		},
		{
			Name: "cisco-wap", ASTyp: asn.TypeCableDSLISP, Region: RegionAmericas,
			CountResponsive: 621, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 6, DNSVisible: 0,
			AddrMode: AddrEUI64, PrefixEpochs: 3,
			HasUniversalMAC: true, Vendor: oui.VendorCisco,
			Services:  []ServiceKind{SvcHTTP, SvcHTTPS},
			HTTPTitle: "WAP150 Wireless-AC/N Dual Radio Access Point with PoE",
			TLSProb:   0.85, SelfSigned: true, Filtered: true, OutdatedBias: 1.2,
		},
		{
			Name: "dlink-infra", ASTyp: asn.TypeCableDSLISP, Region: RegionGlobal,
			CountResponsive: 0, CountHitlistOnly: 46548,
			NTPClient: false, DNSVisible: 0.9,
			AddrMode: AddrStructuredTwoBytes, PrefixEpochs: 1,
			Services:  []ServiceKind{SvcHTTP, SvcHTTPS},
			HTTPTitle: "D-LINK", TLSProb: 0.75, SelfSigned: true, OutdatedBias: 1.0,
		},
		{
			Name: "gateway-ui", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountResponsive: 748, CountHitlistOnly: 486,
			NTPClient: true, SyncWeight: 5, DNSVisible: 0.25,
			AddrMode: AddrLowEntropy, PrefixEpochs: 3,
			Services:  []ServiceKind{SvcHTTP, SvcHTTPS},
			HTTPTitle: "Common UI", TLSProb: 0.8, SelfSigned: true,
			Filtered: true, OutdatedBias: 1.2,
		},
		{
			Name: "webinterface-cpe", ASTyp: asn.TypeCableDSLISP, Region: RegionEurope,
			CountResponsive: 651, CountHitlistOnly: 20,
			NTPClient: true, SyncWeight: 5, DNSVisible: 0.02,
			AddrMode: AddrEUI64, PrefixEpochs: 3,
			Services:  []ServiceKind{SvcHTTP, SvcHTTPS},
			HTTPTitle: "WebInterface", TLSProb: 0.8, SelfSigned: true,
			Filtered: true, OutdatedBias: 1.2,
		},
		{
			Name: "ufi-hotspot", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountResponsive: 2503, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 6, DNSVisible: 0,
			AddrMode: AddrLowEntropy, PrefixEpochs: 6,
			Services:     []ServiceKind{SvcHTTP},
			HTTPTitle:    "UFI配置管理-ZHXL_V2.0.0",
			KeyReuseProb: 0.9, KeyReusePoolSize: 40,
			Filtered: true, OutdatedBias: 1.8,
		},

		{
			// Consumer gateways shipped with baked-in firmware keys:
			// the §6 key-reuse population (91 773 NTP-sourced IPs on
			// 304 reused keys, 45 377 of them on a single key). Slot
			// assignment is Zipf-skewed, so one image dominates.
			Name: "gw-container", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountResponsive: 90000, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 5, DNSVisible: 0.002,
			AddrMode: AddrLowEntropy, PrefixEpochs: 4,
			Services: []ServiceKind{SvcHTTP, SvcHTTPS},
			TitleChoices: []WeightedTitle{
				{Title: "My Modem", W: 30},
				{Title: "Ms Portal", W: 28},
				{Title: "GAID - WIFI NG BAYAN", W: 20},
				{Title: "UFI-JZ_V3.0.0", W: 18},
				{Title: "unique", W: 4},
			},
			TLSProb: 0.85, SelfSigned: true,
			KeyReuseProb: 1.0, KeyReusePoolSize: 304,
			Filtered: true, OutdatedBias: 1.8,
		},

		// --- 3CX and hosting: hitlist-dominant deployments. ---
		{
			Name: "3cx-webclient", ASTyp: asn.TypeContent, Region: RegionGlobal,
			CountResponsive: 164, CountHitlistOnly: 16565,
			NTPClient: true, SyncWeight: 1, DNSVisible: 0.95,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Services:  []ServiceKind{SvcHTTPS},
			HTTPTitle: "3CX Webclient", TLSProb: 1, OutdatedBias: 0.4,
		},
		{
			Name: "3cx-mgmt", ASTyp: asn.TypeContent, Region: RegionGlobal,
			CountResponsive: 322, CountHitlistOnly: 14253,
			NTPClient: true, SyncWeight: 1, DNSVisible: 0.95,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Services:  []ServiceKind{SvcHTTPS},
			HTTPTitle: "3CX Phone System Management Console", TLSProb: 1, OutdatedBias: 0.4,
		},
		{
			Name: "hosting-placeholder", ASTyp: asn.TypeContent, Region: RegionEurope,
			CountResponsive: 0, CountHitlistOnly: 38270,
			NTPClient: false, DNSVisible: 0.98,
			AddrMode: AddrStructuredTwoBytes, PrefixEpochs: 1,
			Services:  []ServiceKind{SvcHTTP, SvcHTTPS},
			HTTPTitle: "Host Europe GmbH", TLSProb: 0.9, OutdatedBias: 0.3,
		},
		{
			Name: "vhost-frontend", ASTyp: asn.TypeContent, Region: RegionGlobal,
			CountResponsive: 0, CountHitlistOnly: 41384,
			NTPClient: false, DNSVisible: 0.97,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Services:    []ServiceKind{SvcHTTP, SvcHTTPS},
			RequireHost: true, HostErrTitle: "(IP) was not found",
			HTTPTitle: "hosted site", TLSProb: 0.9, OutdatedBias: 0.3,
		},
		{
			Name: "cdn-edge", ASTyp: asn.TypeContent, Region: RegionGlobal,
			CountResponsive: 0, CountHitlistOnly: 310000,
			NTPClient: false, DNSVisible: 1,
			AddrMode: AddrStructuredTwoBytes, PrefixEpochs: 1,
			Services:   []ServiceKind{SvcHTTP, SvcHTTPS},
			RequireSNI: true, HTTPTitle: "", TLSProb: 1, OutdatedBias: 0,
		},
		{
			Name: "generic-web", ASTyp: asn.TypeContent, Region: RegionGlobal,
			CountResponsive: 7400, CountHitlistOnly: 395000,
			NTPClient: true, SyncWeight: 0.5, DNSVisible: 0.9,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Services: []ServiceKind{SvcHTTP, SvcHTTPS},
			TitleChoices: []WeightedTitle{
				{Title: "", W: 34},
				{Title: "Apache2 Ubuntu Default Page: It works", W: 13},
				{Title: "Welcome to nginx!", W: 12},
				{Title: "Nothing Page", W: 7},
				{Title: "Plesk Obsidian 18.0.34", W: 3.4},
				{Title: "Index of /pub/", W: 2.4},
				{Title: "FASTPANEL2", W: 1.4},
				{Title: "Login - Join", W: 1.1},
				{Title: "Selamat, website telah aktif!", W: 1.0},
				{Title: "Domain Default page", W: 0.8},
				{Title: "Hier entsteht eine neue Webseite.", W: 0.6},
				{Title: "Home", W: 0.6},
				{Title: "unique", W: 23}, // expands to a per-device title
			},
			TLSProb:      0.7,
			KeyReuseProb: 0.02, KeyReusePoolSize: 400, OutdatedBias: 0.5,
		},

		// --- SSH populations (§4.3.2, Figure 2). ---
		{
			// Professionally managed Ubuntu fleet: hitlist territory.
			Name: "ubuntu-server", ASTyp: asn.TypeContent, Region: RegionGlobal,
			CountResponsive: 0, CountHitlistOnly: 392207,
			NTPClient: false, DNSVisible: 0.85,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Services:     []ServiceKind{SvcSSH},
			SSH:          &SSHOS{IDBase: "SSH-2.0-OpenSSH_9.6p1 Ubuntu-3ubuntu13.", MaxRev: 8},
			KeyReuseProb: 0.04, KeyReusePoolSize: 1200, OutdatedBias: 0.8,
		},
		{
			// End-user-operated Ubuntu boxes reachable from home
			// networks: the NTP-found population, less well patched
			// (Figure 2's per-source gap).
			Name: "ubuntu-exposed", ASTyp: asn.TypeCableDSLISP, Region: RegionGlobal,
			CountResponsive: 28522, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 2, DNSVisible: 0.04,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 4,
			Services:     []ServiceKind{SvcSSH},
			SSH:          &SSHOS{IDBase: "SSH-2.0-OpenSSH_9.6p1 Ubuntu-3ubuntu13.", MaxRev: 8},
			KeyReuseProb: 0.03, KeyReusePoolSize: 300, OutdatedBias: 1.3,
		},
		{
			Name: "debian-server", ASTyp: asn.TypeContent, Region: RegionGlobal,
			CountResponsive: 0, CountHitlistOnly: 180748,
			NTPClient: false, DNSVisible: 0.85,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Services:     []ServiceKind{SvcSSH},
			SSH:          &SSHOS{IDBase: "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u", MaxRev: 5},
			KeyReuseProb: 0.04, KeyReusePoolSize: 700, OutdatedBias: 0.8,
		},
		{
			Name: "debian-exposed", ASTyp: asn.TypeCableDSLISP, Region: RegionGlobal,
			CountResponsive: 13830, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 2, DNSVisible: 0.04,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 4,
			Services:     []ServiceKind{SvcSSH},
			SSH:          &SSHOS{IDBase: "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u", MaxRev: 5},
			KeyReuseProb: 0.03, KeyReusePoolSize: 200, OutdatedBias: 1.3,
		},
		{
			Name: "raspbian", ASTyp: asn.TypeCableDSLISP, Region: RegionGlobal,
			CountResponsive: 4765, CountHitlistOnly: 620,
			NTPClient: true, SyncWeight: 4, DNSVisible: 0.01,
			AddrMode: AddrEUI64, PrefixEpochs: 4,
			HasUniversalMAC: true, Vendor: oui.VendorRaspberryPi,
			Services:     []ServiceKind{SvcSSH},
			SSH:          &SSHOS{IDBase: "SSH-2.0-OpenSSH_9.2p1 Raspbian-10+deb12u", MaxRev: 5},
			OutdatedBias: 2.9,
		},
		{
			Name: "freebsd-infra", ASTyp: asn.TypeNSP, Region: RegionGlobal,
			CountResponsive: 140, CountHitlistOnly: 13874,
			NTPClient: true, SyncWeight: 0.1, DNSVisible: 0.9,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Services:     []ServiceKind{SvcSSH},
			SSH:          &SSHOS{IDBase: "SSH-2.0-OpenSSH_9.6 FreeBSD-20240701", NoPatch: true},
			OutdatedBias: 0.3,
		},
		{
			Name: "ssh-other", ASTyp: asn.TypeEnterprise, Region: RegionGlobal,
			CountResponsive: 26677, CountHitlistOnly: 258000,
			NTPClient: true, SyncWeight: 0.7, DNSVisible: 0.27,
			AddrMode: AddrStructuredTwoBytes, PrefixEpochs: 1,
			Services:     []ServiceKind{SvcSSH},
			SSH:          &SSHOS{IDBase: "SSH-2.0-OpenSSH_8.4p1", NoPatch: true},
			KeyReuseProb: 0.03, KeyReusePoolSize: 900, OutdatedBias: 0.9,
		},

		// --- IoT brokers (§4.4.2, Figure 3). ---
		{
			Name: "mqtt-enduser", ASTyp: asn.TypeCableDSLISP, Region: RegionGlobal,
			CountResponsive: 4316, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 3, DNSVisible: 0.01,
			AddrMode: AddrPrivacy, PrefixEpochs: 3,
			Services: []ServiceKind{SvcMQTT, SvcMQTTS},
			TLSProb:  0.077, AuthProb: 0.45, SelfSigned: true,
			KeyReuseProb: 0.85, KeyReusePoolSize: 40, OutdatedBias: 1.8,
		},
		{
			Name: "mqtt-managed", ASTyp: asn.TypeContent, Region: RegionGlobal,
			CountResponsive: 0, CountHitlistOnly: 48987,
			NTPClient: false, DNSVisible: 0.85,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Services: []ServiceKind{SvcMQTT, SvcMQTTS},
			TLSProb:  0.021, AuthProb: 0.80,
			KeyReuseProb: 0.6, KeyReusePoolSize: 500, OutdatedBias: 0.4,
		},
		{
			Name: "amqp-enduser", ASTyp: asn.TypeCableDSLISP, Region: RegionGlobal,
			CountResponsive: 1152, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 2, DNSVisible: 0.01,
			AddrMode: AddrPrivacy, PrefixEpochs: 3,
			Services: []ServiceKind{SvcAMQP, SvcAMQPS},
			TLSProb:  0.012, AuthProb: 0.90, SelfSigned: true, OutdatedBias: 1.4,
		},
		{
			Name: "amqp-managed", ASTyp: asn.TypeContent, Region: RegionGlobal,
			CountResponsive: 0, CountHitlistOnly: 3083,
			NTPClient: false, DNSVisible: 0.85,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Services: []ServiceKind{SvcAMQP, SvcAMQPS},
			TLSProb:  0.036, AuthProb: 0.94, OutdatedBias: 0.4,
		},

		// --- CoAP devices (§4.3.3). ---
		{
			Name: "coap-castdevice", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountResponsive: 2967, CountHitlistOnly: 0,
			NTPClient: true, SyncWeight: 5, DNSVisible: 0,
			AddrMode: AddrPrivacy, PrefixEpochs: 2,
			Services:      []ServiceKind{SvcCoAP},
			CoAPResources: []string{"/castDeviceSearch"},
		},
		{
			Name: "coap-qlink", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountResponsive: 2088, CountHitlistOnly: 620,
			NTPClient: true, SyncWeight: 4, DNSVisible: 0.35,
			AddrMode: AddrLowEntropy, PrefixEpochs: 2,
			Services:      []ServiceKind{SvcCoAP},
			CoAPResources: []string{"/qlink/sta", "/qlink/config"},
		},
		{
			Name: "coap-efento", ASTyp: asn.TypeEnterprise, Region: RegionEurope,
			CountResponsive: 4, CountHitlistOnly: 55,
			NTPClient: true, SyncWeight: 1, DNSVisible: 0.8,
			AddrMode: AddrEUI64, PrefixEpochs: 1,
			Services:      []ServiceKind{SvcCoAP},
			CoAPResources: []string{"/efento/m", "/efento/i"},
		},
		{
			Name: "coap-nanoleaf", ASTyp: asn.TypeCableDSLISP, Region: RegionAmericas,
			CountResponsive: 1, CountHitlistOnly: 49,
			NTPClient: true, SyncWeight: 1, DNSVisible: 0.8,
			AddrMode: AddrEUI64, PrefixEpochs: 1,
			Services:      []ServiceKind{SvcCoAP},
			CoAPResources: []string{"/nanoleafapi"},
		},
		{
			Name: "coap-empty", ASTyp: asn.TypeCableDSLISP, Region: RegionGlobal,
			CountResponsive: 21, CountHitlistOnly: 311,
			NTPClient: true, SyncWeight: 1, DNSVisible: 0.5,
			AddrMode: AddrPrivacy, PrefixEpochs: 2,
			Services:      []ServiceKind{SvcCoAP},
			CoAPResources: nil,
		},
		{
			Name: "coap-other", ASTyp: asn.TypeEnterprise, Region: RegionGlobal,
			CountResponsive: 15, CountHitlistOnly: 34,
			NTPClient: true, SyncWeight: 1, DNSVisible: 0.6,
			AddrMode: AddrPrivacy, PrefixEpochs: 2,
			Services:      []ServiceKind{SvcCoAP},
			CoAPResources: []string{"/maha", "/.well-known/core"},
		},

		// --- Address-only eyeball devices: no reachable services, but
		// they dominate the NTP-sourced address volume, the EUI-64
		// vendor table, and the low hit rate. ---
		{
			Name: "phone-samsung", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountAddrOnly: 186000, NTPClient: true, SyncWeight: 10,
			AddrMode: AddrEUI64, PrefixEpochs: 2,
			HasUniversalMAC: true, Vendor: oui.VendorSamsung,
			Filtered: true,
		},
		{
			Name: "phone-vivo", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountAddrOnly: 110000, NTPClient: true, SyncWeight: 10,
			AddrMode: AddrEUI64, PrefixEpochs: 2,
			HasUniversalMAC: true, Vendor: oui.VendorVivo,
			Filtered: true,
		},
		{
			Name: "phone-oppo", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountAddrOnly: 52000, NTPClient: true, SyncWeight: 10,
			AddrMode: AddrEUI64, PrefixEpochs: 2,
			HasUniversalMAC: true, Vendor: oui.VendorOppo,
			Filtered: true,
		},
		{
			Name: "phone-xiaomi", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountAddrOnly: 27000, NTPClient: true, SyncWeight: 10,
			AddrMode: AddrEUI64, PrefixEpochs: 2,
			HasUniversalMAC: true, Vendor: oui.VendorXiaomi,
			Filtered: true,
		},
		{
			Name: "phone-generic", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountAddrOnly: 25000000, NTPClient: true, SyncWeight: 10,
			// Randomised locally administered MACs: EUI-64 shaped but
			// not globally unique — the dominant class in Appendix B.
			AddrMode: AddrEUI64, PrefixEpochs: 30,
			HasUniversalMAC: false,
			Filtered:        true,
		},
		{
			Name: "phone-privacy", ASTyp: asn.TypeCableDSLISP, Region: RegionGlobal,
			CountAddrOnly: 70000000, NTPClient: true, SyncWeight: 10,
			AddrMode: AddrPrivacy, PrefixEpochs: 30,
			Filtered: true,
		},
		{
			Name: "echo-speaker", ASTyp: asn.TypeCableDSLISP, Region: RegionAmericas,
			CountAddrOnly: 1120000, NTPClient: true, SyncWeight: 12,
			AddrMode: AddrEUI64, PrefixEpochs: 2,
			HasUniversalMAC: true, Vendor: oui.VendorAmazon,
			Filtered: true,
		},
		{
			Name: "sonos-speaker", ASTyp: asn.TypeCableDSLISP, Region: RegionEurope,
			CountAddrOnly: 144000, NTPClient: true, SyncWeight: 12,
			AddrMode: AddrEUI64, PrefixEpochs: 2,
			HasUniversalMAC: true, Vendor: oui.VendorSonos,
			Filtered: true,
		},
		{
			Name: "tv-haier", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountAddrOnly: 48000, NTPClient: true, SyncWeight: 6,
			AddrMode: AddrEUI64, PrefixEpochs: 2,
			HasUniversalMAC: true, Vendor: oui.VendorHaierMM,
			Filtered: true,
		},
		{
			Name: "fritz-unreachable", ASTyp: asn.TypeCableDSLISP, Region: RegionEurope,
			// FRITZ devices without remote access enabled: sourced, not
			// scannable; they dominate the AVM MAC counts of Table 4.
			CountAddrOnly: 5750000, NTPClient: true, SyncWeight: 8,
			AddrMode: AddrEUI64, PrefixEpochs: 3,
			HasUniversalMAC: true, Vendor: oui.VendorAVMMarketing,
			Filtered: true,
		},

		{
			// Gateways numbered from short serials or config tools:
			// the structured and low-entropy slices of Figure 1's
			// NTP-sourced distribution.
			Name: "gw-structured", ASTyp: asn.TypeCableDSLISP, Region: RegionGlobal,
			CountAddrOnly: 60000000, NTPClient: true, SyncWeight: 4,
			AddrMode: AddrStructuredTwoBytes, PrefixEpochs: 2,
			Filtered: true,
		},
		{
			Name: "gw-lastbyte", ASTyp: asn.TypeCableDSLISP, Region: RegionGlobal,
			CountAddrOnly: 15000000, NTPClient: true, SyncWeight: 3,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Filtered: true,
		},
		{
			Name: "gw-serial", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountAddrOnly: 40000000, NTPClient: true, SyncWeight: 4,
			AddrMode: AddrLowEntropy, PrefixEpochs: 2,
			Filtered: true,
		},
		{
			// Manufacturers shipping universal MACs that never made it
			// into the IEEE registry — the "(Unlisted)" row of Table 4
			// (R&L's top entry).
			Name: "iot-unlisted", ASTyp: asn.TypeCableDSLISP, Region: RegionAsia,
			CountAddrOnly: 2000000, NTPClient: true, SyncWeight: 5,
			AddrMode: AddrEUI64, PrefixEpochs: 2,
			HasUniversalMAC: true, Vendor: "",
			Filtered: true,
		},

		// --- Routers/infrastructure only in traceroute-style seeds. ---
		{
			Name: "core-router", ASTyp: asn.TypeNSP, Region: RegionGlobal,
			CountResponsive: 0, CountHitlistOnly: 120000,
			NTPClient: false, DNSVisible: 0.35,
			AddrMode: AddrStructuredLastByte, PrefixEpochs: 1,
			Services: nil, // no app-layer services: responds to nothing we scan
		},
	}
}
