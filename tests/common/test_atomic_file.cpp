// Crash-safe writes: a writer that throws, or a process SIGKILLed in the
// middle of rewriting a checkpoint or a dataset, leaves the previous file
// at the target path, still loadable.
#include "common/atomic_file.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "data/dataset_io.h"
#include "nn/serialize.h"

namespace paintplace {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Forks a child that rewrites a file with `write` in a loop, lets it get
/// well into a write, then SIGKILLs and reaps it.
void kill_writer_mid_write(const std::function<void()>& write) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      for (;;) write();
    } catch (...) {
    }
    ::_exit(1);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) << "the writer ended on its own";
}

/// Enough floats that one write takes a while, so the kill lands inside it.
nn::Tensor big_tensor(float fill) {
  nn::Tensor t(nn::Shape{4, 1024, 1024});
  for (Index i = 0; i < t.numel(); ++i) t.data()[i] = fill + static_cast<float>(i % 7);
  return t;
}

TEST(AtomicFile, ThrowingWriterLeavesTheOldFile) {
  const std::string path = ::testing::TempDir() + "/pp_atomic_throw.bin";
  write_file_atomically(path, [](std::ostream& out) { out << "old contents"; });
  EXPECT_THROW(write_file_atomically(path,
                                     [](std::ostream& out) {
                                       out << "half of the new";
                                       PP_CHECK_MSG(false, "writer gave up");
                                     }),
               CheckError);
  EXPECT_EQ(slurp(path), "old contents");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFile, UnwritableDirectoryThrows) {
  EXPECT_THROW(write_file_atomically("/nonexistent/dir/file.bin", [](std::ostream&) {}),
               CheckError);
}

TEST(AtomicFile, KilledCheckpointWriterLeavesALoadableCheckpoint) {
  const std::string path = ::testing::TempDir() + "/pp_atomic_ckpt.bin";
  nn::TensorMap map;
  map.emplace("weights", big_tensor(1.0f));
  nn::save_tensors_file(map, path);
  kill_writer_mid_write([&] { nn::save_tensors_file(map, path); });
  nn::TensorMap loaded;
  ASSERT_NO_THROW(loaded = nn::load_tensors_file(path));
  EXPECT_EQ(loaded.at("weights").max_abs_diff(map.at("weights")), 0.0f);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(AtomicFile, KilledDatasetWriterLeavesALoadableDataset) {
  const std::string path = ::testing::TempDir() + "/pp_atomic_dataset.ppds";
  data::Dataset ds;
  ds.design = "atomic";
  data::Sample sample;
  sample.input = big_tensor(2.0f);
  sample.target = big_tensor(3.0f);
  sample.meta.design = "atomic";
  ds.samples.push_back(sample);
  data::save_dataset(ds, path);
  kill_writer_mid_write([&] { data::save_dataset(ds, path); });
  data::Dataset loaded;
  ASSERT_NO_THROW(loaded = data::load_dataset(path));
  ASSERT_EQ(loaded.samples.size(), 1u);
  EXPECT_EQ(loaded.samples[0].target.max_abs_diff(sample.target), 0.0f);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace paintplace
