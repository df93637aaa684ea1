package analysis

import (
	"bytes"
	"reflect"
	"testing"

	"ntpscan/internal/zgrab"
)

func table2Corpus() []*zgrab.Result {
	rs := []*zgrab.Result{
		{IP: addr(1), Module: "http", Status: zgrab.StatusSuccess, HTTP: &zgrab.HTTPGrab{StatusCode: 200}},
		httpsOK(addr(1), "certA", "T", 200),
		httpsOK(addr(2), "certA", "T", 200),
		httpsOK(addr(2), "certA", "T", 200), // duplicate grab, same addr+cert
		sshOK(addr(3), "key1", "SSH-2.0-OpenSSH_9.6p1", "Ubuntu"),
		sshOK(addr(4), "key1", "SSH-2.0-OpenSSH_9.6p1", "Ubuntu"),
		sshOK(addr(4), "key2", "SSH-2.0-OpenSSH_9.6p1", "Ubuntu"),
		mqttOK(addr(5), true),
		coapOK(addr(6), "/castDeviceSearch"),
		{IP: addr(7), Module: "mqtts", Status: zgrab.StatusSuccess,
			TLS: &zgrab.TLSGrab{HandshakeOK: true, CertFingerprint: "certM"}},
		{IP: addr(8), Module: "amqp", Status: zgrab.StatusSuccess},
		{IP: addr(9), Module: "http", Status: zgrab.StatusTimeout, Error: "i/o timeout"}, // failure: ignored
		{IP: addr(10), Module: "ntp", Status: zgrab.StatusSuccess},                       // no Table 2 group
	}
	return rs
}

// table2Want is Table 2 over table2Corpus as the set-building batch
// Table2 computed it before Table2 became a loop over the builder.
var table2Want = []Table2Row{
	{Protocol: "HTTP (80, 443)", Addrs: 2, AddrsTLS: 2, CertsKeys: 1},
	{Protocol: "SSH (22)", Addrs: 2, AddrsTLS: 0, CertsKeys: 2},
	{Protocol: "MQTT (1883, 8883)", Addrs: 2, AddrsTLS: 1, CertsKeys: 1},
	{Protocol: "AMQP (5672, 5671)", Addrs: 1, AddrsTLS: 0, CertsKeys: 0},
	{Protocol: "CoAP (5683 (UDP))", Addrs: 1, AddrsTLS: 0, CertsKeys: 0},
}

// TestTable2BuilderMatchesBatch feeds the corpus in two different
// orders and requires both builders, and Table2 over the same dataset,
// to agree row-for-row with the recorded table, and the builders to
// produce byte-identical state snapshots — the property the
// campaign-time aggregates rely on.
func TestTable2BuilderMatchesBatch(t *testing.T) {
	rs := table2Corpus()
	want := table2Want
	if got := Table2(NewDataset("x", rs)); !reflect.DeepEqual(got, want) {
		t.Fatalf("Table2 rows = %+v, want %+v", got, want)
	}

	fwd := NewTable2Builder()
	for _, r := range rs {
		fwd.Add(r)
	}
	rev := NewTable2Builder()
	for i := len(rs) - 1; i >= 0; i-- {
		rev.Add(rs[i])
	}

	if got := fwd.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("forward builder rows = %+v, want %+v", got, want)
	}
	if got := rev.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reverse builder rows = %+v, want %+v", got, want)
	}

	sf, err := fwd.State()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := rev.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sf, sr) {
		t.Fatalf("state snapshots differ across add order:\n%s\nvs\n%s", sf, sr)
	}
}

// TestTable2BuilderRestore round-trips the snapshot and keeps
// accumulating correctly afterwards.
func TestTable2BuilderRestore(t *testing.T) {
	rs := table2Corpus()
	half := len(rs) / 2

	b := NewTable2Builder()
	for _, r := range rs[:half] {
		b.Add(r)
	}
	snap, err := b.State()
	if err != nil {
		t.Fatal(err)
	}

	resumed := NewTable2Builder()
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	snap2, err := resumed.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, snap2) {
		t.Fatalf("restore changed the snapshot:\n%s\nvs\n%s", snap, snap2)
	}

	for _, r := range rs[half:] {
		b.Add(r)
		resumed.Add(r)
	}
	want := table2Want
	if got := resumed.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed builder rows = %+v, want %+v", got, want)
	}
	if got := b.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("original builder rows = %+v, want %+v", got, want)
	}

	if err := resumed.Restore([]byte(`[{}]`)); err == nil {
		t.Fatal("restore accepted a wrong-shaped snapshot")
	}
	if err := resumed.Restore([]byte(`{`)); err == nil {
		t.Fatal("restore accepted malformed JSON")
	}
}
