#include "sparse/mm_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "matgen/generators.hpp"

namespace fsaic {
namespace {

TEST(MmIoTest, RoundTripGeneral) {
  const auto a = random_spd(20, 3, 11);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const auto b = read_matrix_market(ss);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.nnz(), a.nnz());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      EXPECT_DOUBLE_EQ(b.at(i, j), a.at(i, j));
    }
  }
}

TEST(MmIoTest, SymmetricFileMirrorsUpperTriangle) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% comment line\n"
     << "3 3 4\n"
     << "1 1 2.0\n"
     << "2 1 -1.0\n"
     << "2 2 2.0\n"
     << "3 3 2.0\n";
  const auto a = read_matrix_market(ss);
  EXPECT_EQ(a.nnz(), 5);  // (1,2) mirrored to (2,1)
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_TRUE(a.is_symmetric());
}

TEST(MmIoTest, PatternFieldGivesUnitValues) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate pattern general\n"
     << "2 2 2\n"
     << "1 1\n"
     << "2 2\n";
  const auto a = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);
}

TEST(MmIoTest, RejectsBadBanner) {
  std::stringstream ss;
  ss << "%%NotMatrixMarket matrix coordinate real general\n2 2 0\n";
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(MmIoTest, RejectsTruncatedEntries) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n"
     << "2 2 2\n"
     << "1 1 1.0\n";
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(MmIoTest, RejectsOutOfRangeEntry) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n"
     << "2 2 1\n"
     << "3 1 1.0\n";
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(MmIoTest, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/file.mtx"), Error);
}

TEST(MmIoVectorTest, ArrayVectorRoundTripsBitExactly) {
  std::vector<value_t> v = {1.0, -2.5, 3.0e-17, 0.0, 123456.789};
  std::stringstream ss;
  write_matrix_market_vector(ss, v);
  const auto back = read_matrix_market_vector(ss);
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(back[i], v[i]) << "entry " << i;
  }
}

TEST(MmIoVectorTest, CoordinateVectorFillsMissingEntriesWithZero) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n"
     << "4 1 2\n"
     << "1 1 5.0\n"
     << "3 1 -2.0\n";
  const auto v = read_matrix_market_vector(ss);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 5.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(v[2], -2.0);
  EXPECT_DOUBLE_EQ(v[3], 0.0);
}

TEST(MmIoVectorTest, RejectsMultiColumnObject) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix array real general\n"
     << "2 2\n1.0\n2.0\n3.0\n4.0\n";
  EXPECT_THROW(read_matrix_market_vector(ss), Error);
}

TEST(MmIoVectorTest, RejectsBadVectorBanner) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix array complex general\n2 1\n1.0\n2.0\n";
  EXPECT_THROW(read_matrix_market_vector(ss), Error);
}

TEST(MmIoVectorTest, MissingVectorFileThrows) {
  EXPECT_THROW(read_matrix_market_vector_file("/nonexistent/b.mtx"), Error);
}

/// The Error message read_matrix_market throws for `text`, or "" if it
/// parses.
std::string matrix_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    (void)read_matrix_market(ss);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

constexpr const char* kHeader3x3 =
    "%%MatrixMarket matrix coordinate real general\n"
    "% comment\n"
    "3 3 3\n"
    "1 1 4.0\n"
    "2 2 4.0\n";

TEST(MmIoTest, RejectsNonFiniteValuesWithTheirLine) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e999", "-1e999"}) {
    const std::string err = matrix_error(std::string(kHeader3x3) + "3 3 " + bad + "\n");
    EXPECT_NE(err.find("line 6"), std::string::npos) << bad << ": " << err;
    EXPECT_NE(err.find("not finite"), std::string::npos) << bad << ": " << err;
  }
}

TEST(MmIoTest, RejectsEntriesThatDoNotParseFully) {
  for (const char* bad : {"3 3 4x", "3 3", "3 x 4.0", "3 3 4.0 5.0", "3.5 3 4.0"}) {
    const std::string err = matrix_error(std::string(kHeader3x3) + bad + "\n");
    EXPECT_NE(err.find("line 6"), std::string::npos) << bad << ": " << err;
  }
  // A finite last entry parses.
  EXPECT_EQ(matrix_error(std::string(kHeader3x3) + "3 3 4.0 \n"), "");
}

TEST(MmIoTest, RejectsMalformedAndOversizedSizeLines) {
  const std::string banner = "%%MatrixMarket matrix coordinate real general\n";
  EXPECT_NE(matrix_error(banner + "3 3 x\n").find("line 2: bad size line"),
            std::string::npos);
  EXPECT_NE(matrix_error(banner + "3000000000 3 0\n").find("index range"),
            std::string::npos);
  EXPECT_NE(matrix_error(banner + "3 3000000000 0\n").find("index range"),
            std::string::npos);
}

TEST(MmIoTest, PatternEntriesTakeNoValue) {
  const std::string err = matrix_error(
      "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 7.0\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(MmIoVectorTest, RejectsNonFiniteAndMalformedEntries) {
  for (const char* bad : {"nan", "inf", "1e999", "2x"}) {
    std::stringstream array;
    array << "%%MatrixMarket matrix array real general\n2 1\n1.0\n" << bad << "\n";
    EXPECT_THROW(read_matrix_market_vector(array), Error) << bad;
    std::stringstream coord;
    coord << "%%MatrixMarket matrix coordinate real general\n2 1 1\n2 1 " << bad
          << "\n";
    EXPECT_THROW(read_matrix_market_vector(coord), Error) << bad;
  }
}

}  // namespace
}  // namespace fsaic
