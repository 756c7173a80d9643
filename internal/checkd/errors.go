package checkd

import (
	"errors"
	"fmt"

	"parallaft/internal/packet"
)

// Typed intake rejections. Submit returns these synchronously so a client
// learns immediately — before any replay work is queued — that a packet can
// never produce a meaningful verdict here.
var (
	// ErrVersion: the packet's wire version is not the one this daemon
	// speaks. Distinct from packet.ErrVersion (a decode-time failure): this
	// fires on a well-formed packet whose recorded Version field disagrees.
	ErrVersion = errors.New("checkd: unsupported packet version")

	// ErrConfigDigest: the packet's config digest disagrees — either with
	// its own embedded config (tampering or corruption past the codec) or
	// with the digest this executor is pinned to. Verdicts are only
	// comparable across identical verdict-relevant configs, so mixing
	// digests in one stream is rejected rather than silently checked.
	ErrConfigDigest = errors.New("checkd: packet config digest mismatch")

	// ErrUnrunnable: the packet is well-formed and self-consistent but names
	// a substrate no checker can be built on or bounded by (a page size that
	// is not a power of two up to 64 KiB, no instruction limit). It wraps
	// packet.ErrCorrupt: such values can only come from outside the exporter.
	ErrUnrunnable = fmt.Errorf("checkd: unrunnable packet: %w", packet.ErrCorrupt)

	// ErrMissingChunk: a content-addressed chunk referenced by a packet is
	// not in the store when the packet is checked. Session sends a packet's
	// chunks ahead of it, so the executor gives the packet an infrastructure
	// verdict at once instead of waiting.
	ErrMissingChunk = errors.New("checkd: referenced chunk missing from store")

	// ErrClosed: Submit after Close.
	ErrClosed = errors.New("checkd: executor closed")
)
