#include "sparse/mm_io.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "sparse/coo.hpp"

namespace fsaic {

namespace {

std::string lowercase(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

/// "line N: what" for an Error about 1-based input line N.
std::string at_line(long long line_no, const char* what) {
  return "line " + std::to_string(line_no) + ": " + what;
}

/// Read one value token; false unless it parses and is finite (a failed
/// parse, "nan", "inf" and an overflowing literal are all rejected).
bool read_finite(std::istringstream& in, value_t& v) {
  return static_cast<bool>(in >> v) && std::isfinite(v);
}

/// True iff nothing but whitespace is left on the line.
bool at_end(std::istringstream& in) {
  in >> std::ws;
  return in.eof();
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  FSAIC_REQUIRE(static_cast<bool>(std::getline(in, line)), "empty stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  FSAIC_REQUIRE(banner == "%%MatrixMarket", "missing MatrixMarket banner");
  FSAIC_REQUIRE(lowercase(object) == "matrix", "only matrix objects supported");
  FSAIC_REQUIRE(lowercase(format) == "coordinate",
                "only coordinate format supported");
  const std::string fld = lowercase(field);
  FSAIC_REQUIRE(fld == "real" || fld == "integer" || fld == "pattern",
                "only real/integer/pattern fields supported");
  const std::string sym = lowercase(symmetry);
  FSAIC_REQUIRE(sym == "general" || sym == "symmetric",
                "only general/symmetric matrices supported");

  // Skip comments.
  long long line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream sizes(line);
  long long rows = 0, cols = 0, nnz = 0;
  FSAIC_REQUIRE(static_cast<bool>(sizes >> rows >> cols >> nnz) && at_end(sizes),
                at_line(line_no, "bad size line"));
  FSAIC_REQUIRE(rows > 0 && cols > 0 && nnz >= 0, at_line(line_no, "bad size line"));
  FSAIC_REQUIRE(rows <= std::numeric_limits<index_t>::max() &&
                    cols <= std::numeric_limits<index_t>::max(),
                at_line(line_no, "matrix dimensions exceed the index range"));

  CooBuilder builder(static_cast<index_t>(rows), static_cast<index_t>(cols));
  builder.reserve(static_cast<std::size_t>(sym == "symmetric" ? 2 * nnz : nnz));
  for (long long k = 0; k < nnz; ++k) {
    FSAIC_REQUIRE(static_cast<bool>(std::getline(in, line)),
                  "truncated entry list");
    ++line_no;
    std::istringstream entry(line);
    long long i = 0, j = 0;
    value_t v = 1.0;
    FSAIC_REQUIRE(static_cast<bool>(entry >> i >> j),
                  at_line(line_no, "malformed entry indices"));
    if (fld != "pattern") {
      FSAIC_REQUIRE(read_finite(entry, v),
                    at_line(line_no, "entry value is malformed or not finite"));
    }
    FSAIC_REQUIRE(at_end(entry), at_line(line_no, "trailing characters after entry"));
    FSAIC_REQUIRE(i >= 1 && i <= rows && j >= 1 && j <= cols,
                  at_line(line_no, "entry index out of range"));
    const auto ii = static_cast<index_t>(i - 1);
    const auto jj = static_cast<index_t>(j - 1);
    if (sym == "symmetric") {
      builder.add_symmetric(ii, jj, v);
    } else {
      builder.add(ii, jj, v);
    }
  }
  return builder.to_csr();
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  FSAIC_REQUIRE(in.good(), "cannot open file: " + path);
  return read_matrix_market(in);
}

std::vector<value_t> read_matrix_market_vector(std::istream& in) {
  std::string line;
  FSAIC_REQUIRE(static_cast<bool>(std::getline(in, line)), "empty stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  FSAIC_REQUIRE(banner == "%%MatrixMarket", "missing MatrixMarket banner");
  FSAIC_REQUIRE(lowercase(object) == "matrix" || lowercase(object) == "vector",
                "only matrix/vector objects supported");
  const std::string fmt = lowercase(format);
  FSAIC_REQUIRE(fmt == "array" || fmt == "coordinate",
                "only array/coordinate vectors supported");
  const std::string fld = lowercase(field);
  FSAIC_REQUIRE(fld == "real" || fld == "integer",
                "only real/integer vectors supported");
  FSAIC_REQUIRE(lowercase(symmetry) == "general",
                "vectors must be declared general");

  long long line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream sizes(line);
  long long rows = 0, cols = 0, nnz = 0;
  sizes >> rows >> cols;
  FSAIC_REQUIRE(rows > 0 && cols == 1, "right-hand side must have one column");
  FSAIC_REQUIRE(rows <= std::numeric_limits<index_t>::max(),
                at_line(line_no, "vector length exceeds the index range"));
  std::vector<value_t> v(static_cast<std::size_t>(rows), 0.0);
  if (fmt == "array") {
    for (long long k = 0; k < rows; ++k) {
      FSAIC_REQUIRE(static_cast<bool>(std::getline(in, line)),
                    "truncated vector entries");
      ++line_no;
      std::istringstream entry(line);
      FSAIC_REQUIRE(read_finite(entry, v[static_cast<std::size_t>(k)]) && at_end(entry),
                    at_line(line_no, "malformed or non-finite vector entry"));
    }
  } else {
    sizes >> nnz;
    FSAIC_REQUIRE(nnz >= 0 && nnz <= rows, "bad coordinate vector size line");
    for (long long k = 0; k < nnz; ++k) {
      FSAIC_REQUIRE(static_cast<bool>(std::getline(in, line)),
                    "truncated vector entries");
      ++line_no;
      std::istringstream entry(line);
      long long i = 0, j = 0;
      value_t x = 0.0;
      FSAIC_REQUIRE(static_cast<bool>(entry >> i >> j) && read_finite(entry, x) &&
                        at_end(entry),
                    at_line(line_no, "malformed or non-finite vector entry"));
      FSAIC_REQUIRE(i >= 1 && i <= rows && j == 1,
                    at_line(line_no, "vector entry index out of range"));
      v[static_cast<std::size_t>(i - 1)] = x;
    }
  }
  return v;
}

std::vector<value_t> read_matrix_market_vector_file(const std::string& path) {
  std::ifstream in(path);
  FSAIC_REQUIRE(in.good(), "cannot open file: " + path);
  return read_matrix_market_vector(in);
}

void write_matrix_market_vector(std::ostream& out, std::span<const value_t> v) {
  out << "%%MatrixMarket matrix array real general\n";
  out << v.size() << " 1\n";
  out.precision(17);
  for (const value_t x : v) out << x << '\n';
}

void write_matrix_market_vector_file(const std::string& path,
                                     std::span<const value_t> v) {
  std::ofstream out(path);
  FSAIC_REQUIRE(out.good(), "cannot open file for writing: " + path);
  write_matrix_market_vector(out, v);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  out.precision(17);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols_i = a.row_cols(i);
    const auto vals_i = a.row_vals(i);
    for (std::size_t k = 0; k < cols_i.size(); ++k) {
      out << (i + 1) << ' ' << (cols_i[k] + 1) << ' ' << vals_i[k] << '\n';
    }
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream out(path);
  FSAIC_REQUIRE(out.good(), "cannot open file for writing: " + path);
  write_matrix_market(out, a);
}

}  // namespace fsaic
