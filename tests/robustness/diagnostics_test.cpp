// Unit tests for the diagnostics taxonomy (util/diagnostics.hpp): codes,
// Status, Result, FaultError, DiagnosticsReport, and the composite value
// predicate every guard in the pipeline shares.

#include "relmore/util/diagnostics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "relmore/sta/design.hpp"

namespace ru = relmore::util;

TEST(ErrorCode, NamesAreStableAndDistinct) {
  EXPECT_STREQ(ru::error_code_name(ru::ErrorCode::kOk), "ok");
  EXPECT_STREQ(ru::error_code_name(ru::ErrorCode::kNegativeValue), "negative-value");
  EXPECT_STREQ(ru::error_code_name(ru::ErrorCode::kNonFiniteValue), "non-finite-value");
  EXPECT_STREQ(ru::error_code_name(ru::ErrorCode::kParseError), "parse-error");
  EXPECT_STREQ(ru::error_code_name(ru::ErrorCode::kNonFiniteMoment), "non-finite-moment");
  EXPECT_STREQ(ru::error_code_name(ru::ErrorCode::kTransactionState), "transaction-state");
}

TEST(FaultPolicy, Names) {
  EXPECT_STREQ(ru::fault_policy_name(ru::FaultPolicy::kThrow), "throw");
  EXPECT_STREQ(ru::fault_policy_name(ru::FaultPolicy::kClampAndFlag), "clamp-and-flag");
  EXPECT_STREQ(ru::fault_policy_name(ru::FaultPolicy::kSkipAndFlag), "skip-and-flag");
}

TEST(Status, DefaultIsOk) {
  const ru::Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), ru::ErrorCode::kOk);
  EXPECT_TRUE(s.to_string().empty());
}

TEST(Status, CarriesCodeNodeAndLine) {
  const ru::Status s(ru::ErrorCode::kParseError, "bad token", /*node=*/-1, /*line=*/7);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.line(), 7);
  const std::string text = s.to_string();
  EXPECT_NE(text.find("parse-error"), std::string::npos);
  EXPECT_NE(text.find("line 7"), std::string::npos);
  EXPECT_NE(text.find("bad token"), std::string::npos);
}

TEST(FaultError, IsInvalidArgumentAndCarriesStatus) {
  const ru::FaultError err(
      ru::Status(ru::ErrorCode::kNegativeMoment, "SL went negative", /*node=*/3));
  const std::invalid_argument& base = err;  // must stay catchable as before
  EXPECT_NE(std::string(base.what()).find("negative-moment"), std::string::npos);
  EXPECT_EQ(err.code(), ru::ErrorCode::kNegativeMoment);
  EXPECT_EQ(err.node(), 3);
}

TEST(Result, ValuePathAndErrorPath) {
  const ru::Result<double> good(2.5);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 2.5);
  EXPECT_EQ(good.value_or(-1.0), 2.5);

  const ru::Result<double> bad(ru::Status(ru::ErrorCode::kValueOutOfRange, "too big"));
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ru::ErrorCode::kValueOutOfRange);
  EXPECT_EQ(bad.value_or(-1.0), -1.0);
  EXPECT_THROW((void)bad.value(), ru::FaultError);
  EXPECT_THROW((void)bad.value(), std::invalid_argument);
}

TEST(DiagnosticsReport, CountsErrorsAndWarningsSeparately) {
  ru::DiagnosticsReport report;
  EXPECT_TRUE(report.is_ok());
  EXPECT_TRUE(report.to_status().is_ok());

  ru::Diagnostic warn;
  warn.code = ru::ErrorCode::kZeroTotalCapacitance;
  warn.message = "no load";
  warn.warning = true;
  report.add(warn);
  EXPECT_TRUE(report.is_ok());  // warnings never fail validation
  EXPECT_EQ(report.warning_count(), 1u);

  ru::Diagnostic err;
  err.code = ru::ErrorCode::kNonFiniteValue;
  err.message = "resistance = nan";
  err.node = 4;
  err.path = "s0/s4";
  report.add(err);
  EXPECT_FALSE(report.is_ok());
  EXPECT_EQ(report.error_count(), 1u);
  ASSERT_EQ(report.entries().size(), 2u);

  const ru::Status first = report.to_status();
  EXPECT_EQ(first.code(), ru::ErrorCode::kNonFiniteValue);
  EXPECT_EQ(first.node(), 4);

  const std::string text = report.to_string();
  EXPECT_NE(text.find("non-finite-value"), std::string::npos);
  EXPECT_NE(text.find("s0/s4"), std::string::npos);
}

TEST(ValidElementValue, AcceptsFiniteNonNegativeOnly) {
  EXPECT_TRUE(ru::valid_element_value(0.0));
  EXPECT_TRUE(ru::valid_element_value(-0.0));
  EXPECT_TRUE(ru::valid_element_value(1.5e-12));
  EXPECT_TRUE(ru::valid_element_value(std::numeric_limits<double>::max()));
  EXPECT_FALSE(ru::valid_element_value(-1e-300));
  EXPECT_FALSE(ru::valid_element_value(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(ru::valid_element_value(-std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(ru::valid_element_value(std::nan("")));
}

TEST(Diagnostics, ToStatusCarriesTheFindingOnce) {
  // The Status holds the finding's own message (plus its node path); the
  // code, node, line and net travel in their own fields.
  ru::DiagnosticsReport report;
  ru::Diagnostic err;
  err.code = ru::ErrorCode::kNonFiniteValue;
  err.message = "resistance = nan";
  err.node = 4;
  err.path = "s0/s4";
  err.line = 9;
  err.net = "n1";
  report.add(err);
  const ru::Status s = report.to_status();
  EXPECT_EQ(s.message(), "resistance = nan (s0/s4)");
  EXPECT_EQ(s.node(), 4);
  EXPECT_EQ(s.line(), 9);
  EXPECT_EQ(s.net(), "n1");

  // A nested reader's Status re-recorded by the design reader: one prefix,
  // in Status::to_string, not two in the message.
  std::istringstream is("net bad\nend\ninput i bad\noutput o bad:s0\n");
  const relmore::util::Result<relmore::sta::Design> d = relmore::sta::read_design_checked(is);
  ASSERT_FALSE(d.is_ok());
  EXPECT_EQ(d.status().code(), ru::ErrorCode::kEmptyTree);
  EXPECT_EQ(d.status().message(), "tree has no sections");
  EXPECT_EQ(d.status().net(), "bad");
  const std::string text = d.status().to_string();
  EXPECT_EQ(text.find("error ["), std::string::npos) << text;
  EXPECT_EQ(text.find("empty-tree"), text.rfind("empty-tree")) << text;
}
