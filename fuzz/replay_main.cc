// Runs a libFuzzer harness without libFuzzer, so that any compiler can
// build it and ctest can run it: every file named on the command line
// (directories are walked) is fed to LLVMFuzzerTestOneInput as it is,
// then as fixed-seed mutations of it. A harness that crashes, traps or
// trips a sanitizer fails the run; the same arguments replay the same
// inputs.
//
//   <harness>_replay PATH...

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

constexpr std::size_t kMutants = 1000;  // Per corpus file.

// splitmix64: the same stream on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::size_t Below(std::size_t n) {
    state_ += 0x9e3779b97f4a7c15u;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
    return n == 0 ? 0 : static_cast<std::size_t>((z ^ (z >> 31)) % n);
  }

 private:
  std::uint64_t state_;
};

// FNV-1a, so a file's mutations depend on its name, not on the run.
std::uint64_t Seed(std::string_view name) {
  std::uint64_t hash = 0xcbf29ce484222325u;
  for (const char c : name) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3u;
  }
  return hash;
}

// Bytes that steer the parsers under test: markup, entities, CSV and
// JSON punctuation, line ends, NUL and a lead byte of UTF-8.
constexpr std::string_view kSpecial("<>/=\"'&#;x,\n\r\t {}[]:\\0-\0\xC3", 25);

std::string Mutate(std::string bytes, Rng& rng) {
  const std::size_t edits = 1 + rng.Below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.Below(bytes.size() + 1);
    const std::size_t len = 1 + rng.Below(64);  // erase/substr clamp it.
    const char special = kSpecial[rng.Below(kSpecial.size())];
    switch (rng.Below(6)) {
      case 0:  // Flip one bit.
        if (at < bytes.size()) {
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.Below(8)));
        }
        break;
      case 1:  // Overwrite a byte with a special one.
        if (at < bytes.size()) {
          bytes[at] = special;
        }
        break;
      case 2:  // Insert a special byte.
        bytes.insert(at, 1, special);
        break;
      case 3:  // Erase a range.
        bytes.erase(at, len);
        break;
      case 4:  // Copy a range somewhere else.
        if (at < bytes.size()) {
          const std::string piece = bytes.substr(at, len);
          bytes.insert(rng.Below(bytes.size() + 1), piece);
        }
        break;
      default:  // Truncate.
        bytes.resize(at);
        break;
    }
  }
  return bytes;
}

void Run(const std::string& bytes) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (std::filesystem::is_directory(arg)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(arg)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
    } else if (std::filesystem::is_regular_file(arg)) {
      files.emplace_back(arg);
    } else {
      std::cerr << "no such corpus file or directory: " << arg << '\n';
      return 2;
    }
  }
  if (files.empty()) {
    std::cerr << "usage: " << argv[0] << " PATH...\n";
    return 2;
  }
  std::sort(files.begin(), files.end());
  Run("");
  for (const std::filesystem::path& file : files) {
    std::cerr << "replaying " << file.string() << '\n';
    std::ifstream in(file, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    Run(bytes);
    Rng rng(Seed(file.filename().string()));
    for (std::size_t m = 0; m < kMutants; ++m) {
      Run(Mutate(bytes, rng));
    }
  }
  std::cout << "replayed " << files.size() << " files and "
            << files.size() * kMutants << " mutants\n";
  return 0;
}
