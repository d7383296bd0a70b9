#include "wot/storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "wot/community/dataset_builder.h"
#include "wot/community/entities.h"
#include "wot/io/byte_reader.h"
#include "wot/io/byte_writer.h"
#include "wot/io/crc32.h"
#include "wot/storage/fs_util.h"

namespace wot {
namespace storage {
namespace {

constexpr char kMagic[8] = {'W', 'O', 'T', 'S', 'E', 'G', '1', '\n'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 16;  // magic + bulk_offset
constexpr size_t kFooterBytes = 4;   // trailing CRC32

uint32_t LoadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

uint64_t LoadU64(const char* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

void StoreU32(uint32_t v, char* p) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
}

void StoreU64(uint64_t v, char* p) {
  StoreU32(static_cast<uint32_t>(v), p);
  StoreU32(static_cast<uint32_t>(v >> 32), p + 4);
}

// Raw f64 block helpers: straight memcpy on little-endian hosts, a
// per-element byte shuffle otherwise, so the file format stays LE. An
// empty matrix or vector hands them a null pointer, which memcpy and
// append must not see even with a zero count.
void AppendDoublesLE(const double* src, size_t count, std::string* out) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(src),
                count * sizeof(double));
  } else {
    char bytes[8];
    for (size_t i = 0; i < count; ++i) {
      StoreU64(std::bit_cast<uint64_t>(src[i]), bytes);
      out->append(bytes, 8);
    }
  }
}

void CopyDoublesFromLE(const char* src, double* dst, size_t count) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, count * sizeof(double));
  } else {
    for (size_t i = 0; i < count; ++i) {
      dst[i] = std::bit_cast<double>(LoadU64(src + i * 8));
    }
  }
}

// Read-only mapping of a whole file (RAII).
class MappedFile {
 public:
  static Result<std::unique_ptr<MappedFile>> Map(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError("cannot open segment '" + path +
                             "': " + std::strerror(errno));
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
      int err = errno;
      ::close(fd);
      return Status::IOError("cannot stat segment '" + path +
                             "': " + std::strerror(err));
    }
    const size_t size = static_cast<size_t>(st.st_size);
    void* base = nullptr;
    if (size > 0) {
      base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base == MAP_FAILED) {
        int err = errno;
        ::close(fd);
        return Status::IOError("cannot mmap segment '" + path +
                               "': " + std::strerror(err));
      }
    }
    ::close(fd);
    return std::unique_ptr<MappedFile>(new MappedFile(base, size));
  }

  ~MappedFile() {
    if (base_ != nullptr) ::munmap(base_, size_);
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view view() const {
    return {static_cast<const char*>(base_), size_};
  }

 private:
  MappedFile(void* base, size_t size) : base_(base), size_(size) {}
  void* base_;
  size_t size_;
};

Status CorruptSegment(const std::string& path, const std::string& what) {
  return Status::Corruption("segment '" + path + "': " + what);
}

// Verifies magic and the bulk_offset bounds — the structural facts the
// decoder needs before it can even start. Deliberately does NOT check
// the CRC; see VerifyEnvelope / LoadSegment for the two call patterns.
Status VerifyMagicAndOffset(const std::string& path, std::string_view file,
                            uint64_t* bulk_offset) {
  if (file.size() < kHeaderBytes + kFooterBytes) {
    return CorruptSegment(path, "file too small");
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return CorruptSegment(path, "bad magic");
  }
  const size_t crc_offset = file.size() - kFooterBytes;
  *bulk_offset = LoadU64(file.data() + 8);
  if (*bulk_offset < kHeaderBytes || *bulk_offset > crc_offset ||
      *bulk_offset % 8 != 0) {
    return CorruptSegment(path, "bulk offset out of bounds");
  }
  return Status::OK();
}

// Verifies magic, bulk_offset bounds, and the footer CRC. On success the
// whole file content is CRC-clean.
Status VerifyEnvelope(const std::string& path, std::string_view file,
                      uint64_t* bulk_offset) {
  WOT_RETURN_IF_ERROR(VerifyMagicAndOffset(path, file, bulk_offset));
  const size_t crc_offset = file.size() - kFooterBytes;
  if (Crc32(file.data(), crc_offset) != LoadU32(file.data() + crc_offset)) {
    return CorruptSegment(path, "CRC mismatch");
  }
  return Status::OK();
}

// Decodes the fixed leading fields of the structured section.
struct SegmentHeader {
  uint64_t snapshot_version = 0;
  uint64_t num_categories = 0;
  uint64_t num_users = 0;
  uint64_t num_objects = 0;
  uint64_t num_reviews = 0;
  uint64_t num_ratings = 0;
  uint64_t num_trust = 0;
};

Status DecodeHeader(const std::string& path, ByteReader* reader,
                    size_t file_bytes, SegmentHeader* header) {
  const uint32_t format = reader->GetU32();
  if (reader->failed() || format != kFormatVersion) {
    return CorruptSegment(path, "unsupported format version");
  }
  header->snapshot_version = reader->GetU64();
  header->num_categories = reader->GetU64();
  header->num_users = reader->GetU64();
  header->num_objects = reader->GetU64();
  header->num_reviews = reader->GetU64();
  header->num_ratings = reader->GetU64();
  header->num_trust = reader->GetU64();
  if (reader->failed() || header->snapshot_version == 0) {
    return CorruptSegment(path, "truncated or invalid header");
  }
  // No entity column can hold more entries than the file has bytes —
  // this bounds every decode loop and reserve() by the file size even
  // for a crafted (CRC-consistent) file.
  for (uint64_t count :
       {header->num_categories, header->num_users, header->num_objects,
        header->num_reviews, header->num_ratings, header->num_trust}) {
    if (count > file_bytes) {
      return CorruptSegment(path, "entity count exceeds file size");
    }
  }
  return Status::OK();
}

}  // namespace

Status WriteSegment(const std::string& path, const TrustSnapshot& snapshot,
                    const Dataset& staged) {
  const size_t num_users = staged.num_users();
  const size_t num_categories = staged.num_categories();
  if (snapshot.num_users() != num_users ||
      snapshot.num_categories() != num_categories ||
      snapshot.num_reviews() != staged.num_reviews() ||
      snapshot.num_ratings() != staged.num_ratings()) {
    return Status::InvalidArgument(
        "segment write requires the snapshot to be derived from the "
        "staged dataset (commit-time state)");
  }
  const ReputationResult& reputation = snapshot.reputation();
  if (reputation.expertise.rows() != num_users ||
      reputation.expertise.cols() != num_categories ||
      reputation.review_quality.size() != staged.num_reviews() ||
      reputation.convergence.size() != num_categories) {
    return Status::InvalidArgument("snapshot reputation shape mismatch");
  }

  ByteWriter structured;
  structured.PutU32(kFormatVersion);
  structured.PutU64(snapshot.version());
  structured.PutU64(num_categories);
  structured.PutU64(num_users);
  structured.PutU64(staged.num_objects());
  structured.PutU64(staged.num_reviews());
  structured.PutU64(staged.num_ratings());
  structured.PutU64(staged.num_trust_statements());
  for (const Category& category : staged.categories()) {
    structured.PutString(category.name);
  }
  for (const User& user : staged.users()) {
    structured.PutString(user.name);
  }
  for (const Object& object : staged.objects()) {
    structured.PutU32(object.category.value()).PutString(object.name);
  }
  for (const Review& review : staged.reviews()) {
    structured.PutU32(review.writer.value()).PutU32(review.object.value());
  }
  for (const ReviewRating& rating : staged.ratings()) {
    structured.PutU32(rating.rater.value())
        .PutU32(rating.review.value())
        .PutDouble(rating.value);
  }
  for (const TrustStatement& statement : staged.trust_statements()) {
    structured.PutU32(statement.source.value())
        .PutU32(statement.target.value());
  }
  for (const ConvergenceInfo& info : reputation.convergence) {
    structured.PutU64(static_cast<uint64_t>(info.iterations))
        .PutDouble(info.final_delta)
        .PutU8(info.converged ? 1 : 0);
  }
  const std::vector<ExpertisePostingPtr>& postings =
      snapshot.deriver().postings();
  if (postings.empty()) {
    structured.PutU8(0);
  } else {
    if (postings.size() != num_categories) {
      return Status::InvalidArgument("snapshot postings shape mismatch");
    }
    structured.PutU8(1);
    for (const ExpertisePostingPtr& posting : postings) {
      structured.PutU64(posting->size());
      for (const ScoredUser& entry : *posting) {
        structured.PutU32(entry.user).PutDouble(entry.score);
      }
    }
  }

  std::string file(kMagic, sizeof(kMagic));
  file.resize(kHeaderBytes, '\0');
  file += structured.buffer();
  while (file.size() % 8 != 0) {
    file.push_back('\0');
  }
  StoreU64(file.size(), file.data() + 8);

  AppendDoublesLE(reputation.expertise.data().data(),
                  num_users * num_categories, &file);
  AppendDoublesLE(reputation.rater_reputation.data().data(),
                  num_users * num_categories, &file);
  AppendDoublesLE(snapshot.affiliation().data().data(),
                  num_users * num_categories, &file);
  AppendDoublesLE(reputation.review_quality.data(),
                  reputation.review_quality.size(), &file);

  char crc_bytes[4];
  StoreU32(Crc32(file.data(), file.size()), crc_bytes);
  file.append(crc_bytes, sizeof(crc_bytes));

  return AtomicWriteFile(path, file);
}

// Decodes everything past the envelope. Total on hostile input: every
// count and reference is bounds-checked against the file (and the
// corruption fuzz suite drives it with un-CRC-checked bytes), so it is
// safe to run this before — or concurrently with — the CRC pass.
Result<SegmentData> DecodeSegmentBody(const std::string& path,
                                      std::string_view file,
                                      uint64_t bulk_offset,
                                      size_t crc_offset) {
  ByteReader reader(file.substr(kHeaderBytes, bulk_offset - kHeaderBytes));
  SegmentHeader header;
  WOT_RETURN_IF_ERROR(DecodeHeader(path, &reader, file.size(), &header));

  // The bulk section's size is fully determined by the header counts;
  // anything else means the file is inconsistent.
  const uint64_t matrix_doubles = header.num_users * header.num_categories;
  const uint64_t bulk_bytes =
      (3 * matrix_doubles + header.num_reviews) * sizeof(double);
  if (bulk_offset + bulk_bytes != crc_offset) {
    return CorruptSegment(path, "bulk section size mismatch");
  }

  std::vector<Category> categories;
  categories.reserve(header.num_categories);
  for (uint64_t i = 0; i < header.num_categories && !reader.failed(); ++i) {
    categories.push_back(Category{CategoryId(), reader.GetString()});
  }
  std::vector<User> users;
  users.reserve(header.num_users);
  for (uint64_t i = 0; i < header.num_users && !reader.failed(); ++i) {
    users.push_back(User{UserId(), reader.GetString()});
  }
  std::vector<Object> objects;
  objects.reserve(header.num_objects);
  for (uint64_t i = 0; i < header.num_objects && !reader.failed(); ++i) {
    const uint32_t category = reader.GetU32();
    objects.push_back(
        Object{ObjectId(), CategoryId(category), reader.GetString()});
  }
  // The remaining entity columns are fixed-width record arrays; one
  // GetRaw bounds check per column replaces three sticky checks per
  // record, which is what keeps instant boot instant at 10^5..10^6
  // ratings (GetRaw returns nullptr on underflow and the loops are
  // skipped — the failed() check below reports it).
  std::vector<Review> reviews(header.num_reviews);
  if (const char* raw = reader.GetRaw(header.num_reviews * 8)) {
    for (uint64_t i = 0; i < header.num_reviews; ++i, raw += 8) {
      reviews[i] = Review{ReviewId(), UserId(LoadU32(raw)),
                          ObjectId(LoadU32(raw + 4)), CategoryId()};
    }
  }
  std::vector<ReviewRating> ratings(header.num_ratings);
  if (const char* raw = reader.GetRaw(header.num_ratings * 16)) {
    for (uint64_t i = 0; i < header.num_ratings; ++i, raw += 16) {
      ratings[i] =
          ReviewRating{UserId(LoadU32(raw)), ReviewId(LoadU32(raw + 4)),
                       std::bit_cast<double>(LoadU64(raw + 8))};
    }
  }
  std::vector<TrustStatement> trust(header.num_trust);
  if (const char* raw = reader.GetRaw(header.num_trust * 8)) {
    for (uint64_t i = 0; i < header.num_trust; ++i, raw += 8) {
      trust[i] =
          TrustStatement{UserId(LoadU32(raw)), UserId(LoadU32(raw + 4))};
    }
  }

  SegmentData data;
  data.snapshot_version = header.snapshot_version;
  data.reputation.convergence.reserve(header.num_categories);
  for (uint64_t i = 0; i < header.num_categories && !reader.failed(); ++i) {
    ConvergenceInfo info;
    info.iterations = static_cast<size_t>(reader.GetU64());
    info.final_delta = reader.GetDouble();
    info.converged = reader.GetU8() != 0;
    data.reputation.convergence.push_back(info);
  }
  const uint8_t has_postings = reader.GetU8();
  if (has_postings > 1) {
    return CorruptSegment(path, "invalid postings flag");
  }
  if (has_postings == 1) {
    data.postings.reserve(header.num_categories);
    for (uint64_t c = 0; c < header.num_categories && !reader.failed();
         ++c) {
      const uint64_t count = reader.GetU64();
      if (count > file.size()) {
        return CorruptSegment(path, "posting count exceeds file size");
      }
      auto posting = std::make_shared<ExpertisePosting>(count);
      if (const char* raw = reader.GetRaw(count * 12)) {
        for (uint64_t i = 0; i < count; ++i, raw += 12) {
          (*posting)[i] =
              ScoredUser{LoadU32(raw), std::bit_cast<double>(LoadU64(raw + 4))};
        }
      }
      data.postings.push_back(std::move(posting));
    }
  }
  if (reader.failed()) {
    return CorruptSegment(path, "truncated structured section");
  }
  // Only alignment padding may remain before the bulk section.
  if (reader.remaining() >= 8) {
    return CorruptSegment(path, "structured section has trailing bytes");
  }

  const char* bulk = file.data() + bulk_offset;
  data.reputation.expertise =
      DenseMatrix(header.num_users, header.num_categories, 0.0);
  data.reputation.rater_reputation =
      DenseMatrix(header.num_users, header.num_categories, 0.0);
  data.affiliation =
      DenseMatrix(header.num_users, header.num_categories, 0.0);
  const size_t row_bytes = header.num_categories * sizeof(double);
  for (uint64_t u = 0; u < header.num_users; ++u) {
    CopyDoublesFromLE(bulk + u * row_bytes,
                      data.reputation.expertise.Row(u).data(),
                      header.num_categories);
    CopyDoublesFromLE(bulk + (matrix_doubles + u * header.num_categories) *
                                 sizeof(double),
                      data.reputation.rater_reputation.Row(u).data(),
                      header.num_categories);
    CopyDoublesFromLE(bulk + (2 * matrix_doubles +
                              u * header.num_categories) *
                                 sizeof(double),
                      data.affiliation.Row(u).data(),
                      header.num_categories);
  }
  data.reputation.review_quality.resize(header.num_reviews, 0.0);
  CopyDoublesFromLE(bulk + 3 * matrix_doubles * sizeof(double),
                    data.reputation.review_quality.data(),
                    header.num_reviews);

  Result<Dataset> dataset = DatasetBuilder::FromValidatedColumns(
      std::move(categories), std::move(users), std::move(objects),
      std::move(reviews), std::move(ratings), std::move(trust));
  if (!dataset.ok()) {
    return CorruptSegment(path, dataset.status().message());
  }
  data.dataset = std::move(dataset).ValueOrDie();
  return data;
}

Result<SegmentData> LoadSegment(const std::string& path) {
  WOT_ASSIGN_OR_RETURN(std::unique_ptr<MappedFile> mapped,
                       MappedFile::Map(path));
  std::string_view file = mapped->view();
  uint64_t bulk_offset = 0;
  WOT_RETURN_IF_ERROR(VerifyMagicAndOffset(path, file, &bulk_offset));
  const size_t crc_offset = file.size() - kFooterBytes;

  // The CRC pass and the decode pass each walk the whole multi-megabyte
  // mapping; running them concurrently nearly halves instant-boot
  // latency. Soundness: DecodeSegmentBody is total on unverified bytes
  // (see above), and its result is surfaced only after the CRC verdict —
  // a mismatch wins over whatever the decoder produced or reported.
  uint32_t actual_crc = 0;
  std::thread crc_pass([file, crc_offset, &actual_crc] {
    actual_crc = Crc32(file.data(), crc_offset);
  });
  Result<SegmentData> decoded =
      DecodeSegmentBody(path, file, bulk_offset, crc_offset);
  crc_pass.join();
  if (actual_crc != LoadU32(file.data() + crc_offset)) {
    return CorruptSegment(path, "CRC mismatch");
  }
  return decoded;
}

Result<SegmentInfo> ReadSegmentInfo(const std::string& path) {
  WOT_ASSIGN_OR_RETURN(std::unique_ptr<MappedFile> mapped,
                       MappedFile::Map(path));
  std::string_view file = mapped->view();
  uint64_t bulk_offset = 0;
  WOT_RETURN_IF_ERROR(VerifyEnvelope(path, file, &bulk_offset));
  ByteReader reader(file.substr(kHeaderBytes, bulk_offset - kHeaderBytes));
  SegmentHeader header;
  WOT_RETURN_IF_ERROR(DecodeHeader(path, &reader, file.size(), &header));
  SegmentInfo info;
  info.snapshot_version = header.snapshot_version;
  info.file_bytes = file.size();
  info.num_categories = header.num_categories;
  info.num_users = header.num_users;
  info.num_objects = header.num_objects;
  info.num_reviews = header.num_reviews;
  info.num_ratings = header.num_ratings;
  return info;
}

}  // namespace storage
}  // namespace wot
