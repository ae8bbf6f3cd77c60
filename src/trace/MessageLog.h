//===- trace/MessageLog.h - Durable per-node message log --------*- C++ -*-===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable side log a multi-node recording writes next to each node's
/// epoch log ("<log>.msg"): one record per channel endpoint operation
/// (send or delivery), carrying the channel id, the per-channel sequence
/// number, the integer payload, and the AccessId of the ghost chan RMW the
/// operation rode on. The offline NodeSetLoader matches each node's
/// received (chan, seq) pairs against the sending node's records to build
/// the cross-node send->recv edges of the merged constraint system, and to
/// compute the maximal causal cut when a node's log was torn.
///
/// Format (LongWriter words): one magic word, then 5-word records
/// [chan|dir, seq, value, packed AccessId, crc32c of the first 4 words],
/// then a clean-close word. The writer flushes every record to the OS, so
/// a SIGKILLed node leaves at most one torn record; the loader salvages the
/// longest CRC-valid prefix, mirroring the durable log's torn-tail contract.
///
//===----------------------------------------------------------------------===//

#ifndef LIGHT_TRACE_MESSAGELOG_H
#define LIGHT_TRACE_MESSAGELOG_H

#include "support/BinaryIO.h"
#include "trace/Ids.h"

#include <memory>
#include <string>
#include <vector>

namespace light {

/// One channel endpoint event of a recorded run.
struct MessageRecord {
  uint32_t Chan = 0;
  bool IsSend = false; ///< send (true) or delivery (false)
  uint64_t Seq = 0;    ///< per-channel sequence number of the message
  int64_t Value = 0;   ///< integer payload
  AccessId Access;     ///< the ghost chan RMW this event rode on
};

/// Appends message records durably. Every append reaches the OS before it
/// returns, so node death loses at most the record being written.
class MessageLogWriter {
public:
  explicit MessageLogWriter(std::string Path);
  ~MessageLogWriter();

  MessageLogWriter(const MessageLogWriter &) = delete;
  MessageLogWriter &operator=(const MessageLogWriter &) = delete;

  void append(const MessageRecord &R);

  /// Writes the clean-close marker and closes the file.
  bool finish();

  bool ok() const;
  const std::string &error() const;
  uint64_t recordsWritten() const { return Records; }

private:
  std::unique_ptr<LongWriter> Writer;
  uint64_t Records = 0;
  bool Finished = false;
};

/// What loading a (possibly torn, possibly absent) message log recovered.
struct MessageLogSalvage {
  bool Loaded = false;     ///< file existed and had the magic word
  bool CleanClose = false; ///< close marker present and every CRC valid
  uint64_t RecordsDropped = 0; ///< torn/CRC-failed tail records cut
  std::vector<MessageRecord> Records;
  std::string Error; ///< set when Loaded is false
};

/// Loads \p Path tolerating every failure mode a dead node can leave
/// behind: missing file, torn tail, CRC-failed records. Like
/// salvageRecording, a failed salvage is an input to the causal-cut
/// computation, not an error.
MessageLogSalvage loadMessageLog(const std::string &Path);

/// The message-log path conventionally paired with epoch log \p LogPath.
std::string messageLogPath(const std::string &LogPath);

} // namespace light

#endif // LIGHT_TRACE_MESSAGELOG_H
