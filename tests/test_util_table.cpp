// Tests for the bench-output table writer.

#include <gtest/gtest.h>

#include <sstream>

#include "util/check.hpp"
#include "util/table.hpp"

namespace wcm {
namespace {

TEST(Table, RequiresColumns) {
  EXPECT_THROW(Table(std::vector<std::string>{}), contract_error);
}

TEST(Table, RowDiscipline) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add("x"), contract_error);  // no row started
  t.new_row().add("1").add("2");
  EXPECT_THROW(t.add("3"), contract_error);  // row full
  t.new_row().add("3");
  EXPECT_THROW(t.new_row(), contract_error);  // previous row incomplete
}

TEST(Table, NumericFormatting) {
  Table t({"n", "x"});
  t.new_row().add(std::size_t{42}).add(3.14159, 2);
  EXPECT_EQ(t.data()[0][0], "42");
  EXPECT_EQ(t.data()[0][1], "3.14");
}

TEST(Table, CsvOutput) {
  Table t({"n", "v"});
  t.new_row().add("1").add("2");
  t.new_row().add("3").add("4");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "n,v\n1,2\n3,4\n");
}

TEST(Table, CsvQuotesCellsPerRfc4180) {
  Table t({"n(15,512)", "v"});
  t.new_row().add("has,comma").add("say \"hi\"");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "\"n(15,512)\",v\n\"has,comma\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"col", "x"});
  t.new_row().add("short").add("1");
  t.new_row().add("a-much-longer-cell").add("2");
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("col"), std::string::npos);
  EXPECT_NE(s.find("a-much-longer-cell"), std::string::npos);
  // Header, separator, and two data rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(1.0, 3), "1.000");
  EXPECT_EQ(format_fixed(2.25, 1), "2.2");
  EXPECT_EQ(format_fixed(-1.5, 2), "-1.50");
}

}  // namespace
}  // namespace wcm
