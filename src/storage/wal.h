// Append-only write-ahead log for index mutations (the durability half of
// the ROADMAP's "live mutability" item). A WAL file is:
//
//   header:  "SSRWAL" magic, u32 format version, u64 start_lsn
//   records: [u64 lsn, u8 type, u32 payload_size, u32 payload_crc,
//             u32 header_crc, payload]*
//
// LSNs are dense and ascending from start_lsn; the header CRC covers the
// fixed fields, the payload CRC covers the payload bytes, so a reader can
// trust the frame geometry before allocating and can classify damage:
//
//   - EOF inside a frame (header, CRCs, or payload cut short)
//       -> a *torn tail*: the crash interrupted the last append. The torn
//          bytes are dropped, the log ends cleanly at the previous record,
//          and replay reports bytes_truncated — never an error. Crashes
//          produce byte *prefixes*, so a tear can only be at the tail.
//   - a fully present frame whose CRC or LSN sequence is wrong
//       -> Status::Corruption (mid-log damage: bit rot, not a crash).
//          Acknowledged writes may be unrecoverable; never replay past it.
//   - a file header cut short -> the log crashed during creation, before
//          any Append could return: it reads as an *empty* log (torn tail),
//          provided the surviving bytes are a prefix of a real header.
//   - a wrong magic -> Corruption; an unknown version -> NotSupported.
//
// All bytes cross the stream through BinaryWriter/BinaryReader with the
// "wal/append" / "wal/read" fault sites (torn writes, bit flips, I/O
// errors); the separate record-granular "wal/crash" site, armed with
// FaultKind::kCrashPoint, kills the writer *between* records — the crash
// harness uses it to stop the write path at every record boundary, and
// byte-granular tears are produced by truncating the captured log.
//
// Durability protocol (storage/recovery.h builds on this): Append returns
// the record's LSN once the bytes reached the stream; the mutation is
// *acknowledged* once its LSN is synced (synced_lsn() >= lsn), which the
// sync policy controls — kEveryRecord syncs in Append, kEveryN amortizes,
// kOnCheckpoint leaves syncing to the checkpointer. Recovery guarantees
// every acknowledged mutation survives; unacknowledged tail records may
// survive (they were appended, just not yet synced), which is harmless:
// re-applying a mutation the caller never acknowledged is idempotent.

#ifndef SSR_STORAGE_WAL_H_
#define SSR_STORAGE_WAL_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/result.h"
#include "util/status.h"
#include "util/types.h"

namespace ssr {

/// Fault sites for WAL byte traffic and record-boundary crash points.
inline constexpr std::string_view kWalAppendFaultSite = "wal/append";
inline constexpr std::string_view kWalReadFaultSite = "wal/read";
inline constexpr std::string_view kWalCrashFaultSite = "wal/crash";

/// First LSN of a fresh (never-checkpointed) log.
inline constexpr std::uint64_t kWalFirstLsn = 1;

/// When appended records are synced. "Sync" is std::ostream::flush() for
/// every writer, file-backed ones included: records are flushed to the
/// stream, and no fsync runs. The durable-WAL item in ROADMAP.md tracks
/// a writer that fdatasyncs.
enum class WalSyncPolicy {
  kEveryRecord,   // sync inside every Append (the default)
  kEveryN,        // sync every sync_every_n appends (group commit)
  kOnCheckpoint,  // never sync in Append; the checkpointer calls Sync()
};

struct WalOptions {
  WalSyncPolicy sync_policy = WalSyncPolicy::kEveryRecord;
  std::uint64_t sync_every_n = 32;  // for kEveryN
};

/// Logical mutation kinds. Values are the on-disk u8 tags — append-only:
/// never renumber, only add.
enum class WalRecordType : std::uint8_t {
  kInsert = 1,  // payload: u32 sid, u64-length-prefixed element vector
  kErase = 2,   // payload: u32 sid
  // Online-rebalance move records (sharded indexes only; see
  // shard/sharded_index.h). A move writes kMoveOut to the *source* shard's
  // log (advisory: the sid is leaving toward peer_shard) and then kMoveIn
  // to the *destination* shard's log — the commit point. Crash recovery
  // applies kMoveIn idempotently and ignores kMoveOut, so a sid recovers
  // fully old (no kMoveIn durable) or fully new (kMoveIn durable), never
  // split.
  kMoveIn = 3,   // payload: u32 sid, u32 peer_shard (source), element vector
  kMoveOut = 4,  // payload: u32 sid, u32 peer_shard (destination)
};

/// One decoded mutation record.
struct WalRecord {
  std::uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kInsert;
  SetId sid = kInvalidSetId;
  std::uint32_t peer_shard = 0;  // kMoveIn: source; kMoveOut: destination
  ElementSet set;  // empty for kErase/kMoveOut
};

/// What ReadWal consumed and what it had to drop.
struct WalReadStats {
  std::uint64_t start_lsn = 0;       // from the file header
  std::uint64_t last_lsn = 0;        // 0 when the log holds no records
  std::uint64_t records_read = 0;
  std::uint64_t bytes_truncated = 0;  // torn-tail bytes dropped
  bool tail_truncated = false;
};

/// Appends mutation records to an open stream. Single-writer: the owning
/// index serializes mutations, so the WAL inherits that discipline and
/// needs no locking. After a crash point fires ("wal/crash" armed with
/// kCrashPoint) or the stream fails, the writer is dead: every further
/// Append/Sync returns Unavailable and no more bytes are written —
/// exactly a machine that lost power mid-run.
class WalWriter {
 public:
  /// Writes the file header immediately. `start_lsn` is the first LSN this
  /// log will assign (checkpoint_lsn + 1 after a truncation; kWalFirstLsn
  /// for a fresh log).
  WalWriter(std::ostream& out, std::uint64_t start_lsn,
            WalOptions options = WalOptions());

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one mutation; returns its LSN. The record is flushed to the
  /// stream once synced_lsn() covers it (policy-dependent).
  Result<std::uint64_t> AppendInsert(SetId sid, const ElementSet& set);
  Result<std::uint64_t> AppendErase(SetId sid);

  /// Online-rebalance move records. AppendMoveIn goes to the destination
  /// shard's log and is the move's commit point; AppendMoveOut goes to the
  /// source shard's log before it (advisory). See WalRecordType.
  Result<std::uint64_t> AppendMoveIn(SetId sid, std::uint32_t from_shard,
                                     const ElementSet& set);
  Result<std::uint64_t> AppendMoveOut(SetId sid, std::uint32_t to_shard);

  /// Flushes appended records to the stream (std::ostream::flush(); no
  /// fsync, see the durable-WAL item in ROADMAP.md). Advances synced_lsn
  /// to last_lsn.
  Status Sync();

  /// LSN of the most recent append (start_lsn - 1 when none yet).
  std::uint64_t last_lsn() const { return next_lsn_ - 1; }
  /// Highest LSN flushed to the stream under the sync policy.
  std::uint64_t synced_lsn() const { return synced_lsn_; }
  /// Total bytes this writer emitted (header + records).
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t records_appended() const { return records_appended_; }
  /// True once a crash point or stream failure killed the writer.
  bool crashed() const { return crashed_; }

 private:
  Result<std::uint64_t> Append(WalRecordType type, SetId sid,
                               const ElementSet* set,
                               std::uint32_t peer_shard = 0);

  std::ostream* out_;
  WalOptions options_;
  std::uint64_t next_lsn_;
  std::uint64_t synced_lsn_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t records_appended_ = 0;
  std::uint64_t unsynced_appends_ = 0;
  bool crashed_ = false;
  obs::Counter* appends_;        // ssr_wal_appends_total
  obs::Counter* syncs_;          // ssr_wal_syncs_total
  obs::Counter* append_bytes_;   // ssr_wal_append_bytes_total
  obs::Counter* crash_points_;   // ssr_wal_crash_points_total
};

/// Reads a whole WAL stream: verifies the header, decodes records in LSN
/// order, truncates a torn tail cleanly (see the file comment for the
/// tail-vs-mid-log rules), and surfaces mid-log damage as a typed error.
/// On success `*records` holds every intact record and `*stats` (optional)
/// the read accounting. `expected_start_lsn` (0 = accept any) pins the
/// header's start LSN — recovery passes checkpoint_lsn + 1 so a
/// mismatched snapshot/log pair is caught as Corruption.
Status ReadWal(std::istream& in, std::vector<WalRecord>* records,
               WalReadStats* stats = nullptr,
               std::uint64_t expected_start_lsn = 0);

}  // namespace ssr

#endif  // SSR_STORAGE_WAL_H_
