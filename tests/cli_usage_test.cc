// CLI usage-drift golden test: the batch-mode flags the parser in
// tools/idlog_cli.cc actually accepts must match, as a set, the flags
// documented in the file's header comment AND the flags printed by
// main()'s usage string — in both directions. A flag added to the
// parser without documentation (or documented without implementation)
// fails here with the offending name. The source is read at test time
// via IDLOG_SOURCE_ROOT, so the check never goes stale.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace idlog {
namespace {

std::string ReadCliSource() {
  std::string path = std::string(IDLOG_SOURCE_ROOT) + "/tools/idlog_cli.cc";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Every `--flag` token inside `text` (a long option: "--" followed by a
// lowercase letter, then letters/digits/hyphens). The documentation's
// literal placeholder "--flag" (from the "--flag value / --flag=value"
// spelling note) is not a real option and is dropped.
std::set<std::string> ExtractFlagTokens(const std::string& text) {
  std::set<std::string> flags;
  for (size_t pos = text.find("--"); pos != std::string::npos;
       pos = text.find("--", pos + 2)) {
    auto lower = [&text](size_t i) {
      return std::islower(static_cast<unsigned char>(text[i])) != 0;
    };
    auto digit = [&text](size_t i) {
      return std::isdigit(static_cast<unsigned char>(text[i])) != 0;
    };
    size_t start = pos + 2;
    if (start >= text.size() || !lower(start)) continue;
    size_t end = start;
    while (end < text.size() &&
           (lower(end) || digit(end) || text[end] == '-')) {
      ++end;
    }
    std::string flag = text.substr(pos, end - pos);
    if (flag != "--flag") flags.insert(flag);
  }
  return flags;
}

// Flags the argument parser compares against: every `arg == "--name"`.
std::set<std::string> ParserFlags(const std::string& source) {
  std::set<std::string> flags;
  const std::string needle = "arg == \"--";
  for (size_t pos = source.find(needle); pos != std::string::npos;
       pos = source.find(needle, pos + 1)) {
    size_t start = pos + needle.size() - 2;  // keep the leading "--"
    size_t end = source.find('"', start);
    if (end == std::string::npos) break;
    flags.insert(source.substr(start, end - start));
  }
  return flags;
}

// The header comment: everything before the first #include.
std::string HeaderComment(const std::string& source) {
  size_t end = source.find("#include");
  EXPECT_NE(end, std::string::npos);
  return source.substr(0, end);
}

// main()'s usage block: from the "usage:" literal to the end of that
// fprintf call.
std::string UsageBlock(const std::string& source) {
  size_t start = source.find("\"usage:");
  EXPECT_NE(start, std::string::npos);
  size_t end = source.find(");", start);
  EXPECT_NE(end, std::string::npos);
  return source.substr(start, end - start);
}

void ExpectSameFlagSets(const std::set<std::string>& parser,
                        const std::set<std::string>& documented,
                        const char* where) {
  for (const std::string& f : parser) {
    EXPECT_TRUE(documented.count(f) > 0)
        << f << " is accepted by the parser but missing from " << where;
  }
  for (const std::string& f : documented) {
    EXPECT_TRUE(parser.count(f) > 0)
        << f << " appears in " << where
        << " but the parser does not accept it";
  }
}

TEST(CliUsage, HeaderCommentMatchesParser) {
  std::string source = ReadCliSource();
  ASSERT_FALSE(source.empty());
  std::set<std::string> parser = ParserFlags(source);
  ASSERT_FALSE(parser.empty()) << "parser comparison pattern went stale";
  ExpectSameFlagSets(parser, ExtractFlagTokens(HeaderComment(source)),
                     "the header comment");
}

TEST(CliUsage, UsageStringMatchesParser) {
  std::string source = ReadCliSource();
  ASSERT_FALSE(source.empty());
  std::set<std::string> parser = ParserFlags(source);
  ASSERT_FALSE(parser.empty()) << "parser comparison pattern went stale";
  ExpectSameFlagSets(parser, ExtractFlagTokens(UsageBlock(source)),
                     "main()'s usage string");
}

// The durability surface must stay wired into the CLI: these flags are
// load-bearing for the kill-and-resume workflow (a rename would break
// scripts and the CI smoke), so their removal should be a deliberate,
// test-visible act rather than parser drift.
TEST(CliUsage, CheckpointAndFaultFlagsExist) {
  std::string source = ReadCliSource();
  ASSERT_FALSE(source.empty());
  std::set<std::string> parser = ParserFlags(source);
  for (const char* flag : {"--checkpoint", "--checkpoint-every-rounds",
                           "--resume", "--fail-at"}) {
    EXPECT_TRUE(parser.count(flag) > 0)
        << flag << " is no longer accepted by the batch-mode parser";
  }
}

TEST(CliUsage, WhyFlagsExist) {
  std::string source = ReadCliSource();
  ASSERT_FALSE(source.empty());
  std::set<std::string> parser = ParserFlags(source);
  for (const char* flag : {"--why", "--why-not", "--why-json"}) {
    EXPECT_TRUE(parser.count(flag) > 0)
        << flag << " is no longer accepted by the batch-mode parser";
  }
}

// Storage observability surface: the dbstats and flight-recorder flags
// are what CI's schema smoke and the post-mortem workflow script
// against; keep them a deliberate rename away from disappearing.
TEST(CliUsage, StorageObservabilityFlagsExist) {
  std::string source = ReadCliSource();
  ASSERT_FALSE(source.empty());
  std::set<std::string> parser = ParserFlags(source);
  for (const char* flag : {"--db-stats", "--db-stats-json",
                           "--flight-recorder", "--flight-events"}) {
    EXPECT_TRUE(parser.count(flag) > 0)
        << flag << " is no longer accepted by the batch-mode parser";
  }
}

// Durable-session surface: the WAL, update-script and recovery flags
// are the kill-during-update CI smoke's contract; signal handling
// rides the same path (SIGINT/SIGTERM cancel through the governor),
// so the installer must stay wired into batch mode.
TEST(CliUsage, DurableSessionFlagsExist) {
  std::string source = ReadCliSource();
  ASSERT_FALSE(source.empty());
  std::set<std::string> parser = ParserFlags(source);
  for (const char* flag : {"--wal", "--update-script", "--recover",
                           "--wal-group-commit",
                           "--wal-checkpoint-every"}) {
    EXPECT_TRUE(parser.count(flag) > 0)
        << flag << " is no longer accepted by the batch-mode parser";
  }
  EXPECT_NE(source.find("InstallSignalHandlers()"), std::string::npos)
      << "batch mode no longer installs the SIGINT/SIGTERM handlers";
  EXPECT_NE(source.find("SIGTERM"), std::string::npos);
}

}  // namespace
}  // namespace idlog
