// fi_merkle_root — print the Merkle root of a file: Fig. 1's `merkleRoot`,
// the descriptor field a client computes over its file's bytes and submits
// with File_Add.
//
//   fi_merkle_root --file data.bin
//
// Prints the root as 64 hex characters on one line. The tree is
// `crypto::MerkleTree::over_data`: 64-byte leaf blocks, domain-separated
// leaf and interior hashes, odd levels duplicating their last node. The
// whole file is read into memory.
//
// Exit codes (tests/cli_contract_test.cpp): 0 ok, 1 unreadable file,
// 2 usage.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "util/arg_parser.h"

int main(int argc, char** argv) {
  std::string path;

  fi::util::ArgParser parser("fi_merkle_root", "--file <path>");
  parser.add_string("--file", &path, "path", "the file to hash");

  if (auto status = parser.parse(argc, argv); !status.is_ok()) {
    return parser.usage_error(status);
  }
  if (parser.help_requested()) {
    std::fputs(parser.help_text().c_str(), stdout);
    return 0;
  }
  if (path.empty()) {
    return parser.usage_error("--file is required");
  }

  // file_size fails on a missing path and on anything but a regular file.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> data(ec ? 0 : size);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (ec || !in) {
    std::fprintf(stderr, "fi_merkle_root: cannot read %s\n", path.c_str());
    return 1;
  }
  std::printf("%s\n", fi::crypto::merkle_root_of_data(data).hex().c_str());
  return 0;
}
