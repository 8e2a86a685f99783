// Crash-isolated process scheduler internals: the wire protocol between a
// job process and the supervisor, exposed so the fault-injection tests can
// assert on frames directly.
//
// Topology (run_farm_processes): the supervisor stays single-threaded on
// the calling thread and pre-forks one *zygote* per worker slot. A zygote
// builds the process's android::SystemImage once (and warms its decode
// memo), then forks one short-lived *job process* per dispatched job; the
// job inherits both through copy-on-write memory, so its Device only binds
// the image. The same image serves thread workers. The job writes exactly
// one frame — its serialized JobResult — to a private pipe; the zygote
// validates the frame and forwards it verbatim to the supervisor, or, when
// the job died (signal, deadline SIGALRM, torn frame), synthesizes a death
// frame in its place. A zygote that dies itself is seen by the supervisor
// as EOF on that slot's result pipe and is respawned. Either way a lost
// process costs at most its own job: the supervisor re-queues the job once
// and marks it failed (deterministically) on the second loss.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "farm/farm.h"

namespace ndroid::farm::wire {

/// Frame header magic, "NFR1" little-endian.
inline constexpr u32 kFrameMagic = 0x3152464Eu;
/// Frame types.
inline constexpr u8 kFrameResult = 1;  // payload = serialized JobResult
inline constexpr u8 kFrameDeath = 2;   // payload = DeathInfo
/// Exit code a job process's SIGALRM handler uses to report a blown
/// deadline (distinguishable from crashes and from clean exits).
inline constexpr int kTimeoutExit = 117;
/// Upper bound on a frame payload (a JobResult is a few KB; anything near
/// this is a corrupt length field).
inline constexpr u64 kMaxPayload = 64u << 20;

/// Why a job process died without producing a result.
struct DeathInfo {
  enum class Cause : u8 { kSignal = 0, kTimeout = 1, kProtocol = 2 };
  Cause cause = Cause::kSignal;
  i32 value = 0;  // signal number / timeout ms / exit status
};

/// One parsed frame off a result pipe.
struct Frame {
  u8 type = kFrameResult;
  u32 job_index = 0;
  std::vector<u8> payload;
};

/// Serialized JobResult payload codec. Deterministic: equal results encode
/// to equal bytes. decode throws serde::DecodeError on malformed input.
[[nodiscard]] std::vector<u8> encode_result(const JobResult& r);
[[nodiscard]] JobResult decode_result(std::span<const u8> payload);

[[nodiscard]] std::vector<u8> encode_death(const DeathInfo& d);
[[nodiscard]] DeathInfo decode_death(std::span<const u8> payload);

/// Wraps a payload in a framed envelope: magic, type, job index, length,
/// payload bytes, FNV-1a hash of the payload.
[[nodiscard]] std::vector<u8> encode_frame(u8 type, u32 job_index,
                                           std::span<const u8> payload);

/// Consumes one complete, hash-verified frame from the front of `buf`
/// (erasing it), or nullopt when `buf` does not yet hold a full frame.
/// Throws serde::DecodeError on a corrupt header or hash mismatch — the
/// caller treats the whole stream (and its sender) as dead.
std::optional<Frame> take_frame(std::vector<u8>& buf);

}  // namespace ndroid::farm::wire
