// Versioned binary snapshots of a running Falcon pipeline.
//
// A snapshot captures every durable input the next operator depends on —
// labeled sample, crowd journal, learned forests, candidate rules and the
// selected sequence, candidate pairs, RNG engine state, virtual-time
// accounting, and the identity of the input tables — so a killed run can be
// resumed on another process byte-identically (same matches, same rule
// sequence, same crowd questions). Transient artifacts that are pure
// functions of the persisted state (feature vectors, token stores, indexes)
// are deliberately NOT serialized; FalconPipeline::Rehydrate rebuilds them
// on load, mirroring the O1 masking windows the original run built them in.
//
// Format: a fixed header (magic "FSNP", format version) followed by tagged
// sections, each `tag u32` and then a CRC frame (`payload_len u64 | crc32
// u32 | payload`, BinaryWriter::Framed). Everything is little-endian.
// Readers refuse snapshots written by a NEWER format version and refuse any
// section whose CRC32 does not match — a corrupted checkpoint must fail
// loudly, not resume wrongly.
//
// Resume is decode, validate, rebuild, each in one place. LoadSnapshot
// decodes every sequence through BinaryReader::Seq, whose count is bounded
// by the bytes left, then runs one validator over the decoded state before
// anything reads it: rows inside the tables, label and coverage indices
// inside the sample, rule coverage equal to its bitmap's count, finite rule
// times, forests over the pipeline's feature layout, and whatever the next
// operator reads. Rehydrate then only rebuilds.
#ifndef FALCON_SESSION_SNAPSHOT_H_
#define FALCON_SESSION_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/pipeline.h"
#include "crowd/crowd.h"
#include "table/table.h"

namespace falcon {

inline constexpr uint32_t kSnapshotMagic = 0x46534E50u;  // "FSNP"
/// Version 2 appended the budget-exhaustion flags to the METRICS section
/// (and shipped alongside crowd journal format v2, which records full label
/// requests). Version-1 snapshots remain loadable: the appended fields
/// default to false.
inline constexpr uint32_t kSnapshotVersion = 2;

/// Fingerprint of every FalconConfig field that influences the run's
/// behavior. A snapshot can only resume under the exact configuration that
/// produced it; a silent config drift would break byte-identical resume.
uint64_t ConfigFingerprint(const FalconConfig& config);

/// Parsed META section (cheap inspection without loading the full state).
struct SnapshotMeta {
  uint32_t format_version = 0;
  std::string session_id;
  uint64_t config_fingerprint = 0;
  uint64_t seed = 0;
  PipelineStage next = PipelineStage::kInit;
  bool used_blocking = false;
  uint64_t table_a_rows = 0, table_a_hash = 0;
  uint64_t table_b_rows = 0, table_b_hash = 0;
};

/// Serializes the pipeline's durable state plus the crowd platform's state
/// (for a JournalingCrowd that includes the full Q&A journal). The pipeline
/// may be at any operator boundary, including un-started and done.
std::string WriteSnapshot(const std::string& session_id,
                          const FalconPipeline& pipeline, const Table& a,
                          const Table& b, const CrowdPlatform& crowd,
                          const FalconConfig& config);

/// Reads the header + META section only.
Result<SnapshotMeta> ReadSnapshotMeta(std::string_view blob);

/// Restores `pipeline` (freshly constructed over the same tables/config and
/// not yet started) and `crowd` from a snapshot. Refuses future format
/// versions, CRC mismatches, truncation, config-fingerprint drift,
/// table-identity drift (row count + content hash), and any state a later
/// stage could not run on (see the format note above). Callers should run
/// pipeline->Rehydrate() afterwards to rebuild transient caches.
Status LoadSnapshot(std::string_view blob, const Table& a, const Table& b,
                    CrowdPlatform* crowd, FalconPipeline* pipeline,
                    std::string* session_id);

}  // namespace falcon

#endif  // FALCON_SESSION_SNAPSHOT_H_
