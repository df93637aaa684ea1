package analysis

import (
	"fmt"
	"testing"
)

// TestByNetworkAndTitleFoldsGolden holds the serial folds to what the
// chunked build/merge folds they replaced printed at the commit before
// (recorded there at GOMAXPROCS 1, 2 and 8), on inputs past the 2048
// records at which those used to fan out. The first ssh, the mqtt and
// the first https line are that fan-out test's corpus; the other two
// lines make the answers depend on what the rewrite could get wrong:
// an address whose outdated grab is one of several (OR across records
// that used to land in different chunks), and a certificate that serves
// a different title on later grabs (first-wins).
func TestByNetworkAndTitleFoldsGolden(t *testing.T) {
	titles := []string{"FRITZ!Box 7590", "FRITZ!Box 7530", "Synology DiskStation", "",
		"RouterOS router configuration page", "Home Assistant", "OpenWrt - LuCI", "Plesk Obsidian 18.0.61"}
	d := NewDataset("x", nil)
	for i := 0; i < 4000; i++ {
		d.Add(sshOK(addr(i%1000), fmt.Sprintf("k%d", i%50),
			fmt.Sprintf("SSH-2.0-OpenSSH_9.%dp1", i%3), "Ubuntu"))
		rev := 3
		if i%11 == 0 {
			rev = 1
		}
		d.Add(sshOK(addr(i%1300), fmt.Sprintf("d%d", i%90),
			fmt.Sprintf("SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u%d", rev), "Debian"))
		d.Add(mqttOK(addr(i%700), i%5 == 0))
		d.Add(httpsOK(addr(i%900), fmt.Sprintf("c%d", i%333), fmt.Sprintf("Device %d", i%7), 200))
		d.Add(httpsOK(addr(i%1100), fmt.Sprintf("e%d", i%411), titles[(i*7+i/411)%len(titles)], 200))
	}
	for _, c := range []struct{ name, got, want string }{
		{"SSHOutdatedByNetwork", fmt.Sprint(SSHOutdatedByNetwork(d)),
			"[[{addr 1300 364} {/48 6 6} {/56 6 6} {/64 6 6}]]"},
		{"BrokerAccessByNetwork", fmt.Sprint(BrokerAccessByNetwork(d, "mqtt")),
			"[{addr 140 560} {/48 3 0} {/56 3 0} {/64 3 0}]"},
		{"TitleGroups", fmt.Sprint(TitleGroups(d)),
			"[{Device 0 333} {FRITZ!Box 7590 103} {OpenWrt - LuCI 52} {Plesk Obsidian 18.0.61 52} " +
				"{(no title present) 51} {Home Assistant 51} {RouterOS router configuration page 51} " +
				"{Synology DiskStation 51}]"},
	} {
		if c.got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
}
