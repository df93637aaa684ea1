package analysis

import (
	"fmt"
	"runtime"
	"testing"
)

// The parallel fold must produce the same rollups at any worker count.
func TestParallelWorkersKnobDeterminism(t *testing.T) {
	d := NewDataset("x", nil)
	for i := 0; i < 4000; i++ {
		rev := i % 3
		d.Add(sshOK(addr(i%1000), fmt.Sprintf("k%d", i%50),
			fmt.Sprintf("SSH-2.0-OpenSSH_9.%dp1", rev), "Ubuntu"))
		d.Add(mqttOK(addr(i%700), i%5 == 0))
		d.Add(httpsOK(addr(i%900), fmt.Sprintf("c%d", i%333), fmt.Sprintf("Device %d", i%7), 200))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ssh1 := fmt.Sprint(SSHOutdatedByNetwork(d))
	mqtt1 := fmt.Sprint(BrokerAccessByNetwork(d, "mqtt"))
	titles1 := fmt.Sprint(TitleGroups(d))

	runtime.GOMAXPROCS(8)
	ssh8 := fmt.Sprint(SSHOutdatedByNetwork(d))
	mqtt8 := fmt.Sprint(BrokerAccessByNetwork(d, "mqtt"))
	titles8 := fmt.Sprint(TitleGroups(d))

	if ssh1 != ssh8 {
		t.Fatalf("SSHOutdatedByNetwork differs across workers:\n%s\n%s", ssh1, ssh8)
	}
	if mqtt1 != mqtt8 {
		t.Fatalf("BrokerAccessByNetwork differs across workers:\n%s\n%s", mqtt1, mqtt8)
	}
	if titles1 != titles8 {
		t.Fatalf("TitleGroups differs across workers:\n%s\n%s", titles1, titles8)
	}
}
