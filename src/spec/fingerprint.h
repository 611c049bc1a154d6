// Content fingerprint of a spec document.
//
// Resume (and the cavenet-serve result cache) only trust a checkpointed
// point manifest when it was produced by the *same* spec AND the same
// engine: every point manifest embeds the 64-bit FNV-1a hash of an
// engine-version tag plus the canonically re-serialized document
// (obs::to_json — compact, key order preserved, doubles %.17g), rendered
// as 16 lowercase hex digits. Any edit that changes the document's
// canonical form — even whitespace stays out, but a value change always
// shows — invalidates the checkpoint, and so does bumping
// kEngineSchemaVersion, which guards cached results against
// kernel-affecting changes across binaries.
#ifndef CAVENET_SPEC_FINGERPRINT_H
#define CAVENET_SPEC_FINGERPRINT_H

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.h"

namespace cavenet::spec {

/// Engine/schema version mixed into every fingerprint. Bump this whenever
/// a change alters what a previously fingerprinted point would simulate
/// or serialize (kernel arithmetic, RNG streams, manifest layout, spec
/// defaults): old checkpoints and cache entries then read as stale
/// everywhere fingerprints are compared, instead of being replayed as
/// results the current binary can no longer reproduce.
inline constexpr std::uint32_t kEngineSchemaVersion = 2;

/// 64-bit FNV-1a over `bytes`.
std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Continues a running FNV-1a hash over `bytes` (chained form of
/// fnv1a64; pass the previous return value as `hash`).
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) noexcept;

/// FNV-1a of the engine-version tag plus the document's canonical
/// serialization, as 16 hex digits. `engine_version` exists so tests can
/// prove a version bump invalidates previously cached points; production
/// callers always use the default.
std::string fingerprint_hex(const obs::JsonValue& document,
                            std::uint32_t engine_version = kEngineSchemaVersion);

}  // namespace cavenet::spec

#endif  // CAVENET_SPEC_FINGERPRINT_H
