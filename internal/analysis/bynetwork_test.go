package analysis

import (
	"testing"

	"ntpscan/internal/ipv6x"
	"ntpscan/internal/zgrab"
)

func TestSSHOutdatedByNetwork(t *testing.T) {
	// Two addresses in one /64 share a reused outdated key; one
	// up-to-date server sits in another /64.
	a1 := ipv6x.FromParts(0x20010db8_00000000, 1)
	a2 := ipv6x.FromParts(0x20010db8_00000000, 2)
	b1 := ipv6x.FromParts(0x20010db8_00010000, 1)
	d := NewDataset("x", []*zgrab.Result{
		sshOK(a1, "reused", "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u1", "Debian"),
		sshOK(a2, "reused", "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u1", "Debian"),
		sshOK(b1, "fresh", "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u5", "Debian"),
	})

	byKey := SSHOutdated(d)[0]
	if byKey.Assessable != 2 || byKey.Outdated != 1 {
		t.Fatalf("by-key = %+v", byKey)
	}
	byNet := SSHOutdatedByNetwork(d)[0]
	var byAddr, by64 PatchByNet
	for _, row := range byNet {
		switch row.Granularity {
		case "addr":
			byAddr = row
		case "/64":
			by64 = row
		}
	}
	// By address, the reused key counts twice: 2 of 3 outdated.
	if byAddr.Assessable != 3 || byAddr.Outdated != 2 {
		t.Fatalf("by-addr = %+v", byAddr)
	}
	if byAddr.OutdatedShare() <= byKey.OutdatedShare() {
		t.Fatal("address counting should raise outdatedness under key reuse")
	}
	// By /64, the shared network counts once (outdated) plus the fresh
	// one.
	if by64.Assessable != 2 || by64.Outdated != 1 {
		t.Fatalf("by-/64 = %+v", by64)
	}
}

func TestSSHOutdatedByNetworkEmpty(t *testing.T) {
	rows := SSHOutdatedByNetwork(NewDataset("x", nil))[0]
	for _, row := range rows {
		if row.Assessable != 0 || row.OutdatedShare() != 0 {
			t.Fatalf("empty dataset row = %+v", row)
		}
	}
}

func TestBrokerAccessByNetwork(t *testing.T) {
	// Same /64: one open, one protected broker -> the network counts
	// as open.
	a1 := ipv6x.FromParts(0x20010db8_00000000, 1)
	a2 := ipv6x.FromParts(0x20010db8_00000000, 2)
	b1 := ipv6x.FromParts(0x20010db8_00010000, 1)
	d := NewDataset("x", []*zgrab.Result{
		mqttOK(a1, true),
		mqttOK(a2, false),
		mqttOK(b1, false),
	})
	rows := BrokerAccessByNetwork(d, "mqtt")
	var byAddr, by64 AccessByNet
	for _, row := range rows {
		switch row.Granularity {
		case "addr":
			byAddr = row
		case "/64":
			by64 = row
		}
	}
	if byAddr.Open != 1 || byAddr.AccessControl != 2 {
		t.Fatalf("by-addr = %+v", byAddr)
	}
	if by64.Open != 1 || by64.AccessControl != 1 {
		t.Fatalf("by-/64 = %+v", by64)
	}
	if byAddr.OpenShare() >= by64.OpenShare() {
		t.Fatal("network counting should raise the open share here")
	}
	if (AccessByNet{}).OpenShare() != 0 {
		t.Fatal("zero-value open share")
	}
}

func TestNewDeviceFinds(t *testing.T) {
	ours := NewDataset("ntp", []*zgrab.Result{
		httpsOK(addr(1), "c1", "FRITZ!Box", 200),
		httpsOK(addr(2), "c2", "FRITZ!Box", 200),
		coapOK(addr(3), "/castDeviceSearch"),
		sshOK(addr(4), "k1", "SSH-2.0-OpenSSH_9.2p1 Raspbian-10+deb12u2", "Raspbian"),
	})
	ref := NewDataset("hitlist", []*zgrab.Result{
		httpsOK(addr(5), "c5", "Welcome to nginx!", 200),
	})
	got := NewDeviceFinds(ours, ref)
	// 2 FRITZ certs + 1 castdevice + 1 Raspbian key: all absent from
	// the reference.
	if got != 4 {
		t.Fatalf("NewDeviceFinds = %d, want 4", got)
	}
	// Symmetric check: reference's nginx is not "new" for ours.
	if n := NewDeviceFinds(ref, ours); n != 1 {
		t.Fatalf("reverse = %d, want 1 (nginx)", n)
	}
}

func TestIIDShareAndASNumbers(t *testing.T) {
	ctx := testContext()
	s := NewAddrSummary(ctx)
	s.Add(ipv6x.FromParts(0x20010db8_00000000, 1))
	s.Add(ipv6x.FromParts(0x20010db8_00000000, 0xdeadbeefcafe1234))
	st := s.Stats()
	if got := st.IIDShare(ipv6x.IIDLastByte); got != 0.5 {
		t.Fatalf("IIDShare = %v", got)
	}
	if len(s.perAS) != 1 {
		t.Fatalf("origin ASes = %v", s.perAS)
	}
}
