//===- tests/trace/MessageLogTest.cpp - Durable message-log tests ---------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
///
/// The durable per-node message log (trace/MessageLog.h): clean round
/// trips, and every failure mode a SIGKILLed node leaves behind — missing
/// file, torn trailing record, CRC-corrupted record. Salvage must hand
/// the causal-cut computation the longest valid prefix, mirroring the
/// durable recording log's torn-tail contract.
///
//===----------------------------------------------------------------------===//

#include "trace/MessageLog.h"

#include "support/BinaryIO.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace light;

namespace {

std::vector<MessageRecord> sampleRecords() {
  std::vector<MessageRecord> Rs;
  for (int I = 0; I < 5; ++I) {
    MessageRecord R;
    R.Chan = static_cast<uint32_t>(I % 2);
    R.IsSend = (I % 2) == 0;
    R.Seq = static_cast<uint64_t>(I);
    R.Value = 100 + I;
    R.Access = AccessId(1 + I % 3, 10 + I);
    Rs.push_back(R);
  }
  return Rs;
}

std::string writeLog(const std::string &Stem,
                     const std::vector<MessageRecord> &Rs, bool Finish) {
  std::string Path = makeTempPath(Stem);
  MessageLogWriter W(Path);
  EXPECT_TRUE(W.ok()) << W.error();
  for (const MessageRecord &R : Rs)
    W.append(R);
  EXPECT_EQ(W.recordsWritten(), Rs.size());
  if (Finish) {
    EXPECT_TRUE(W.finish());
  }
  return Path;
}

/// Truncates the file at \p Path to \p Bytes bytes.
void truncateTo(const std::string &Path, long Bytes) {
  std::ifstream In(Path, std::ios::binary);
  std::string Data((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  In.close();
  ASSERT_LE(static_cast<size_t>(Bytes), Data.size());
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Data.data(), Bytes);
}

} // namespace

TEST(MessageLog, CleanRoundTrip) {
  std::vector<MessageRecord> Rs = sampleRecords();
  std::string Path = writeLog("msglog", Rs, /*Finish=*/true);

  MessageLogSalvage S = loadMessageLog(Path);
  EXPECT_TRUE(S.Loaded) << S.Error;
  EXPECT_TRUE(S.CleanClose);
  EXPECT_EQ(S.RecordsDropped, 0u);
  ASSERT_EQ(S.Records.size(), Rs.size());
  for (size_t I = 0; I < Rs.size(); ++I) {
    EXPECT_EQ(S.Records[I].Chan, Rs[I].Chan);
    EXPECT_EQ(S.Records[I].IsSend, Rs[I].IsSend);
    EXPECT_EQ(S.Records[I].Seq, Rs[I].Seq);
    EXPECT_EQ(S.Records[I].Value, Rs[I].Value);
    EXPECT_EQ(S.Records[I].Access.pack(), Rs[I].Access.pack());
  }
  std::remove(Path.c_str());
}

TEST(MessageLog, MissingFileIsAnInputNotAnError) {
  MessageLogSalvage S = loadMessageLog(makeTempPath("msglog-nofile"));
  EXPECT_FALSE(S.Loaded);
  EXPECT_FALSE(S.CleanClose);
  EXPECT_TRUE(S.Records.empty());
  EXPECT_FALSE(S.Error.empty());
}

TEST(MessageLog, UnfinishedLogSalvagesEveryDurableRecord) {
  // A node killed between appends: no close marker, but every append was
  // flushed, so nothing durable is lost. The writer's destructor closes
  // the log (SIGKILL wouldn't), so emulate the kill by chopping the
  // close word back off.
  std::vector<MessageRecord> Rs = sampleRecords();
  std::string Path = writeLog("msglog-kill", Rs, /*Finish=*/false);
  truncateTo(Path, static_cast<long>(8 * (1 + 5 * Rs.size())));

  MessageLogSalvage S = loadMessageLog(Path);
  EXPECT_TRUE(S.Loaded) << S.Error;
  EXPECT_FALSE(S.CleanClose);
  EXPECT_EQ(S.Records.size(), Rs.size());
  std::remove(Path.c_str());
}

TEST(MessageLog, TornTailRecordIsCut) {
  // Chop the last record mid-word: format is 1 magic word + 5 words per
  // record, 8 bytes each; cutting 12 bytes leaves record 5 torn.
  std::vector<MessageRecord> Rs = sampleRecords();
  std::string Path = writeLog("msglog-torn", Rs, /*Finish=*/false);
  truncateTo(Path, static_cast<long>(8 * (1 + 5 * Rs.size()) - 12));

  MessageLogSalvage S = loadMessageLog(Path);
  EXPECT_TRUE(S.Loaded) << S.Error;
  EXPECT_FALSE(S.CleanClose);
  ASSERT_EQ(S.Records.size(), Rs.size() - 1);
  EXPECT_EQ(S.Records.back().Value, Rs[Rs.size() - 2].Value);
  std::remove(Path.c_str());
}

TEST(MessageLog, CrcFailedTailIsCut) {
  // Flip a byte inside the last record's payload: its CRC fails and the
  // salvage keeps exactly the records before it.
  std::vector<MessageRecord> Rs = sampleRecords();
  std::string Path = writeLog("msglog-crc", Rs, /*Finish=*/false);
  {
    std::fstream F(Path,
                   std::ios::binary | std::ios::in | std::ios::out);
    // Second word (seq) of the last record.
    F.seekp(8 * (1 + 5 * (static_cast<long>(Rs.size()) - 1) + 1));
    char B = 0x5a;
    F.write(&B, 1);
  }
  MessageLogSalvage S = loadMessageLog(Path);
  EXPECT_TRUE(S.Loaded) << S.Error;
  EXPECT_FALSE(S.CleanClose);
  EXPECT_GE(S.RecordsDropped, 1u);
  ASSERT_EQ(S.Records.size(), Rs.size() - 1);
  for (size_t I = 0; I + 1 < Rs.size(); ++I)
    EXPECT_EQ(S.Records[I].Value, Rs[I].Value);
  std::remove(Path.c_str());
}

TEST(MessageLog, PathConvention) {
  EXPECT_EQ(messageLogPath("/tmp/run.lightlog.node3"),
            "/tmp/run.lightlog.node3.msg");
}
