// Package transport puts a real wire behind the cluster's control
// plane: the four cluster.API calls (Claim, Heartbeat, SubmitSlice,
// Release) served over HTTP on a loopback socket, with every request
// and response body carried as one self-verifying frame (the cluster
// frame codec under the "ntpw" magic) around a JSON payload.
//
// Server wraps any cluster.API — a live Coordinator for the chaos
// oracle, a Fabric for multi-process nodes — and Client implements
// cluster.API over the socket, so cluster dispatch and node replicas
// run unchanged whether their control calls are function calls or HTTP
// round-trips. Protocol errors survive the wire typed: the server maps
// cluster sentinels to stable error codes and HTTP statuses, and the
// client maps them back so errors.Is(err, cluster.ErrStaleEpoch) holds
// on both sides of the socket.
//
// See DESIGN.md "Cluster transport" for the frame format, the fault
// mapping, and the determinism argument.
package transport

import "ntpscan/internal/cluster"

// wireMagic tags transport frames; distinct from the checkpoint magic
// ("ntpc") so a checkpoint file fed to the wire decoder — or vice
// versa — fails loudly at the first four bytes.
var wireMagic = [4]byte{'n', 't', 'p', 'w'}

// MaxFrameBody bounds the JSON payload of one wire frame (1 MiB). The
// largest legitimate body is a grants response — tens of bytes per
// shard — so the bound is generous for any real decomposition while
// keeping a corrupt or hostile length field from making either side
// allocate gigabytes.
const MaxFrameBody = 1 << 20

// Method paths. One POST endpoint per cluster.API call.
const (
	pathClaim     = "/v1/cluster/claim"
	pathHeartbeat = "/v1/cluster/heartbeat"
	pathSubmit    = "/v1/cluster/submit"
	pathRelease   = "/v1/cluster/release"
)

// contentType marks framed bodies so an accidental plain-JSON client
// is diagnosable from the server's logs.
const contentType = "application/x-ntpscan-frame"

// Dense method indices for the transport metric vectors.
const (
	methodClaim = iota
	methodHeartbeat
	methodSubmit
	methodRelease
)

var methodNames = []string{"claim", "heartbeat", "submit", "release"}

// Wire error codes: the stable names protocol errors travel under.
// Status codes are chosen so generic HTTP tooling reads sensibly
// (conflict for fencing, not-found for an unknown node) but the client
// maps on the code string, never the status.
const (
	codeStaleEpoch    = "stale_epoch"     // 409: submission fenced
	codeUnknownNode   = "unknown_node"    // 404: node index outside the cluster
	codeBadRequest    = "bad_request"     // 400: frame or JSON undecodable
	codeFrameTooLarge = "frame_too_large" // 413: declared body over MaxFrameBody
	codeInternal      = "internal"        // 500: anything else
)

// claimRequest carries Claim and Heartbeat arguments.
type claimRequest struct {
	Node  int `json:"node"`
	Slice int `json:"slice"`
}

// submitRequest carries SubmitSlice arguments.
type submitRequest struct {
	Node  int    `json:"node"`
	Shard int    `json:"shard"`
	Slice int    `json:"slice"`
	Epoch uint64 `json:"epoch"`
}

// releaseRequest carries Release arguments.
type releaseRequest struct {
	Node int `json:"node"`
}

// wireGrant is cluster.Grant on the wire.
type wireGrant struct {
	Shard        int    `json:"shard"`
	Epoch        uint64 `json:"epoch"`
	ExpiresSlice int    `json:"expires_slice"`
}

// grantsResponse answers Claim and Heartbeat.
type grantsResponse struct {
	Grants []wireGrant `json:"grants"`
}

// okResponse answers SubmitSlice and Release.
type okResponse struct {
	OK bool `json:"ok"`
}

// wireError is the body of every non-200 response.
type wireError struct {
	Code   string `json:"code"`
	Detail string `json:"detail"`
}

func toWireGrants(gs []cluster.Grant) []wireGrant {
	out := make([]wireGrant, len(gs))
	for i, g := range gs {
		out[i] = wireGrant{Shard: g.Shard, Epoch: g.Epoch, ExpiresSlice: g.ExpiresSlice}
	}
	return out
}

func fromWireGrants(ws []wireGrant) []cluster.Grant {
	if len(ws) == 0 {
		return nil
	}
	out := make([]cluster.Grant, len(ws))
	for i, w := range ws {
		out[i] = cluster.Grant{Shard: w.Shard, Epoch: w.Epoch, ExpiresSlice: w.ExpiresSlice}
	}
	return out
}
