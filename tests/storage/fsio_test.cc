// I/O faults through the failpoint registry and the fsio choke points:
// errno and short-write faults at the io.* sites under each mode, their spec
// forms, the errno marker round-trip, a clean injected error writing
// nothing, torn short writes landing a real prefix on the fd, and
// WriteFileDurably leaving no debris. The logical-site modes and the shared
// grammar are covered by tests/common/failpoint_test.cc.

#include "storage/fsio.h"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <string>

#include "common/failpoint.h"
#include "common/status.h"

namespace f2db::storage {
namespace {

using failpoint::FaultKind;
using failpoint::Policy;

class IoFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisableAll(); }
};

TEST_F(IoFaultTest, UnarmedSiteNeverFires) {
  const failpoint::Fault fault = failpoint::Evaluate(kIoSiteWalAppend);
  EXPECT_FALSE(fault.injected());
  EXPECT_EQ(fault.err, 0);
  // Anonymous I/O is never injected, even while a site is armed.
  failpoint::Enable(kIoSiteWalAppend, Policy::Always());
  EXPECT_FALSE(failpoint::Evaluate(nullptr).injected());
}

TEST_F(IoFaultTest, AlwaysModeFiresEveryEvaluation) {
  failpoint::Enable(kIoSiteWalAppend, Policy::Always());
  for (int i = 0; i < 5; ++i) {
    const failpoint::Fault fault = failpoint::Evaluate(kIoSiteWalAppend);
    EXPECT_EQ(fault.kind, FaultKind::kError);
    EXPECT_EQ(fault.err, EIO);
  }
  EXPECT_EQ(failpoint::Evaluations(kIoSiteWalAppend), 5u);
  EXPECT_EQ(failpoint::Triggers(kIoSiteWalAppend), 5u);
}

TEST_F(IoFaultTest, EveryNthModeFiresOnMultiples) {
  failpoint::Enable(kIoSiteWalFsync, Policy::EveryNth(3).WithErrno(ENOSPC));
  for (int i = 1; i <= 9; ++i) {
    const failpoint::Fault fault = failpoint::Evaluate(kIoSiteWalFsync);
    EXPECT_EQ(fault.injected(), i % 3 == 0) << "evaluation " << i;
    EXPECT_EQ(fault.err, i % 3 == 0 ? ENOSPC : 0) << "evaluation " << i;
  }
}

TEST_F(IoFaultTest, MaxTriggersBoundsTheFaultWindow) {
  // A bounded window of torn writes: two short writes, then clean I/O.
  failpoint::Enable(kIoSiteWalAppend, Policy::Always(2).WithShortWrite());
  int torn = 0;
  for (int i = 0; i < 6; ++i) {
    if (failpoint::Evaluate(kIoSiteWalAppend).kind == FaultKind::kShortWrite) {
      ++torn;
    }
  }
  EXPECT_EQ(torn, 2);
  EXPECT_EQ(failpoint::Evaluations(kIoSiteWalAppend), 6u);
}

TEST_F(IoFaultTest, ProbabilityModeIsSeedDeterministic) {
  const auto draw = [&](std::uint64_t seed) {
    failpoint::Enable(kIoSiteSegmentWrite, Policy::WithProbability(0.5, seed));
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      const bool fired = failpoint::Evaluate(kIoSiteSegmentWrite).injected();
      pattern += fired ? '1' : '0';
    }
    return pattern;
  };
  const std::string first = draw(7);
  EXPECT_EQ(first, draw(7));
  EXPECT_NE(first, std::string(64, '0'));
  EXPECT_NE(first, std::string(64, '1'));
  EXPECT_NE(first, draw(8));
}

TEST_F(IoFaultTest, SpecGrammarArmsSites) {
  ASSERT_TRUE(failpoint::EnableFromSpec(
                  "io.wal_append=eio; io.wal_create=enospc:nth:2;"
                  "io.manifest_commit=short:prob:1.0:9")
                  .ok());
  EXPECT_EQ(failpoint::Evaluate(kIoSiteWalAppend).err, EIO);
  EXPECT_FALSE(failpoint::Evaluate(kIoSiteWalCreate).injected());
  EXPECT_EQ(failpoint::Evaluate(kIoSiteWalCreate).err, ENOSPC);
  EXPECT_EQ(failpoint::Evaluate(kIoSiteManifestCommit).kind,
            FaultKind::kShortWrite);

  // "off" disarms exactly one site.
  ASSERT_TRUE(failpoint::EnableFromSpec("io.wal_append=off").ok());
  EXPECT_FALSE(failpoint::Evaluate(kIoSiteWalAppend).injected());
  EXPECT_TRUE(failpoint::AnyEnabled());
}

TEST_F(IoFaultTest, MalformedSpecIsRejectedAtomically) {
  for (const char* spec : {
           "io.wal_append",
           "io.wal_append=bogus",
           "io.wal_append=eio:nth",
           "io.wal_append=eio:off",
           "io.wal_append=eio;io.wal_fsync=nope",
       }) {
    EXPECT_EQ(failpoint::EnableFromSpec(spec).code(),
              StatusCode::kInvalidArgument)
        << spec;
    // The valid first entry of a failed spec must not have been armed.
    EXPECT_FALSE(failpoint::AnyEnabled()) << spec;
  }
}

TEST_F(IoFaultTest, ErrnoMarkerRoundTrips) {
  const Status status = IoError("write", "wal.log", ENOSPC);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ErrnoFromStatus(status), ENOSPC);
  EXPECT_EQ(ErrnoFromStatus(Status::OK()), 0);
  EXPECT_EQ(ErrnoFromStatus(Status::Unavailable("no marker here")), 0);
  EXPECT_EQ(ErrnoFromStatus(Status::Unavailable("fake [errno:abc]")), 0);
}

class IoFaultFsioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/f2db_fsio_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    failpoint::DisableAll();
    ::unlink((dir_ + "/file").c_str());
    ::unlink((dir_ + "/file.tmp").c_str());
    ::rmdir(dir_.c_str());
  }
  std::string dir_;
};

TEST_F(IoFaultFsioTest, InjectedErrorWritesNothing) {
  const std::string path = dir_ + "/file";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  // A plain mode with no fault keyword injects EIO at an I/O site.
  failpoint::Enable(kIoSiteWalAppend, failpoint::Policy::Always());
  const Status status = WriteAllFd(fd, "payload", 7, kIoSiteWalAppend, "file");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ErrnoFromStatus(status), EIO);
  EXPECT_EQ(::lseek(fd, 0, SEEK_END), 0) << "clean error must write 0 bytes";
  ::close(fd);
}

TEST_F(IoFaultFsioTest, ShortWriteLandsARealPrefix) {
  const std::string path = dir_ + "/file";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  failpoint::Enable(kIoSiteWalAppend,
                    failpoint::Policy::Always().WithShortWrite());
  const std::string payload(256, 'x');
  const Status status =
      WriteAllFd(fd, payload.data(), payload.size(), kIoSiteWalAppend, "file");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ErrnoFromStatus(status), EIO);
  const off_t size = ::lseek(fd, 0, SEEK_END);
  EXPECT_GT(size, 0) << "a torn write must land a non-empty prefix";
  EXPECT_LT(size, static_cast<off_t>(payload.size()));
  ::close(fd);
}

TEST_F(IoFaultFsioTest, WriteFileDurablyCleansUpOnInjectedFault) {
  const std::string path = dir_ + "/file";
  failpoint::Enable(kIoSiteManifestCommit,
                    failpoint::Policy::Always().WithErrno(ENOSPC));
  const Status status = WriteFileDurably(path, "bytes", nullptr, nullptr,
                                         kIoSiteManifestCommit);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ErrnoFromStatus(status), ENOSPC);
  EXPECT_EQ(ReadFileToString(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ReadFileToString(path + ".tmp").status().code(),
            StatusCode::kNotFound)
      << "tmp debris must be unlinked on an injected fault";

  failpoint::DisableAll();
  ASSERT_TRUE(WriteFileDurably(path, "bytes").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "bytes");
}

TEST_F(IoFaultFsioTest, RemoveFileFailureCarriesItsErrno) {
  // Unlinking a non-empty directory fails (EISDIR on Linux, EPERM in
  // POSIX); the failure reaches disk health in the IoError form.
  const std::string path = dir_ + "/file";
  ASSERT_TRUE(WriteFileDurably(path, "bytes").ok());
  const Status status = RemoveFile(dir_);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(ErrnoFromStatus(status), 0) << status.ToString();
  EXPECT_TRUE(ReadFileToString(path).ok()) << "nothing may be removed";
  // A missing file is not a failure.
  EXPECT_TRUE(RemoveFile(dir_ + "/missing").ok());
}

}  // namespace
}  // namespace f2db::storage
