#pragma once

#include <cstdint>

#include "core/types.h"
#include "crypto/hash.h"

/// File descriptor (Fig. 1): the on-chain record describing a stored file.
namespace fi::core {

struct FileDescriptor {
  ByteCount size = 0;
  TokenAmount value = 0;
  crypto::Hash256 merkle_root;
  /// Number of replicas to maintain (`cp = k · value / minValue`).
  std::uint32_t cp = 0;
  /// Proof cycles until the next location refresh; re-sampled from
  /// Exp(AvgRefresh) after every refresh (Fig. 7/9). -1 until stored.
  std::int64_t cntdown = -1;
  FileState state = FileState::normal;
};

/// A live file's row of the allocation table: its descriptor, the client
/// that owns it (and pays its rent) and the time File_Add created it.
/// `desc.cp` is also the length of the file's run of entries, so it never
/// changes after the row is created.
struct FileRow {
  FileDescriptor desc;
  ClientId owner = kNoAccount;
  Time added_at = 0;
};

}  // namespace fi::core
